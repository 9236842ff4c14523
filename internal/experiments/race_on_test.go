//go:build race

package experiments

import "time"

// round80Bound is TestComplexityShape's budget for the 80-identity
// round. The race detector slows the round about tenfold (1.3-1.6 s
// against 0.13 s alone on a 2-vCPU host), so a race build gets its own
// bound rather than a looser shared one.
const round80Bound = 10 * time.Second
