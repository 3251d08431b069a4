package experiments

import (
	"github.com/hunter-cdb/hunter/internal/parallel"
)

// Session scheduling.
//
// Every runner's work decomposes into independent (method × panel × seed)
// tuning sessions: each session owns its RNG, virtual clock, simulated
// cloud provider and engines, so sessions never share mutable state and
// can execute in any order — or concurrently — without changing a single
// result bit. The runners therefore declare their sessions as indexed
// jobs, each job writing its extracted results (curves, best points,
// recommendation times) into a per-index slot, and fold the slots into
// tables strictly in declaration order afterwards. Scheduling is the only
// thing that varies between serial and parallel runs; folding is not, so
// runner output is byte-identical for any worker count.
//
// Dependencies between sessions (a model-reuse registry populated by a
// training run, transplanted sample pools) are expressed as separate
// runJobs rounds: everything inside one round must be independent.

// runJobs executes n independent session jobs over the deterministic
// parallel worker pool (one job per chunk; with one worker that is the
// declaration-order loop on the calling goroutine). All jobs run even if
// one fails; the first error in declaration order is returned, again
// independent of scheduling.
func runJobs(n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = job(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
