//go:build !race

package experiments

import "time"

// round80Bound is TestComplexityShape's budget for the 80-identity
// round: the paper's OBU took 630 ms for it.
const round80Bound = 2 * time.Second
