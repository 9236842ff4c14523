// Fixture for the metricnames analyzer over the compare-phase
// telemetry: the pairs_* work-accounting counters (full DTW runs,
// lower-bound prunes) must be pinned in the package golden, a new
// unpinned compare-phase family is reported, and a retired golden
// family is flagged at the NewRegistry call.
package fixture

import "voiceprint/internal/obs"

func buildPairs(c *obs.Counter) *obs.Registry {
	r := obs.NewRegistry("pairfixture") // want "golden family \"pairfixture_pairs_pruned_cascade_total\" \\(testdata/metrics_golden.prom\\) is no longer registered"
	r.Counter("pairs_compared_total", "Pairwise series fully compared with FastDTW.", c)
	r.Counter("pairs_pruned_lb_total", "Pairs skipped because the LB_Keogh bound cleared the cap.", c)
	r.Counter("pairs_envelopes_total", "Absent from the golden.", c) // want "metric \"pairs_envelopes_total\" is not pinned"
	return r
}
