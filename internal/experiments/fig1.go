package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/hunter-cdb/hunter/internal/core"
	"github.com/hunter-cdb/hunter/internal/tuner"
)

// RunFigure1 reproduces Figure 1: (a) the number of tuning steps each
// state-of-the-art method needs to reach its optimal throughput on TPC-C,
// and (b) the tuning time to reach the optimum on the four standard
// workloads — the cold-start evidence that motivates HUNTER.
func RunFigure1(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	budget := cfg.budget(50 * time.Hour)
	methods := []string{"BestConfig", "OtterTune", "CDBTune", "QTune", "ResTune"}
	p := tpccMySQL()
	panels := []panel{sysbenchROMySQL(), sysbenchWOMySQL(), sysbenchRWMySQL(), tpccMySQL()}

	// Jobs 0..4 are part (a)'s TPC-C sessions; the rest is the (method ×
	// workload) grid of part (b).
	type result struct {
		recTime time.Duration
		step    int
	}
	nA := len(methods)
	results := make([]result, nA+len(methods)*len(panels))
	if err := runJobs(len(results), func(i int) error {
		var s *tuner.Session
		var err error
		if i < nA {
			s, err = runSession(cfg, p, methods[i], core.Options{}, budget, 1, int64(i))
		} else {
			mi, pj := (i-nA)/len(panels), (i-nA)%len(panels)
			s, err = runSession(cfg, panels[pj], methods[mi], core.Options{}, budget, 1, int64(100+mi*10+pj))
		}
		if err != nil {
			return err
		}
		defer s.Close()
		results[i].recTime, results[i].step = s.Curve().RecommendationTime(s.DefaultPerf, s.Alpha, 0.98)
		return nil
	}); err != nil {
		return err
	}

	fmt.Fprintln(w, "(a) tuning steps for the optimal throughput on TPC-C")
	ta := newTable("Method", "Steps to optimum", "Rec. time")
	for i, m := range methods {
		ta.row(m, fmt.Sprintf("%d", results[i].step), hours(results[i].recTime))
	}
	ta.flush(w)

	fmt.Fprintln(w, "\n(b) tuning time for the optimal throughput per workload")
	tb := newTable(append([]string{"Method"}, panelNames(panels)...)...)
	for i := range methods {
		row := []string{methods[i]}
		for j := range panels {
			row = append(row, hours(results[nA+i*len(panels)+j].recTime))
		}
		tb.row(row...)
	}
	tb.flush(w)
	return nil
}

func panelNames(ps []panel) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
