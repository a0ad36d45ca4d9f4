// Command divexplorer runs pattern-divergence analysis on a CSV file
// containing discrete attributes, a ground-truth column and a prediction
// column.
//
// Example:
//
//	divexplorer -input data.csv -truth label -pred predicted \
//	    -support 0.05 -metric FPR -topk 10 -global -corrective 5
//
// Continuous columns can be discretized on the fly with
// -discretize col=4 (equal-frequency bins). A pattern's sub-lattice is
// rendered with -lattice "attr=v,attr=v".
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	divexplorer "repro"
	"repro/internal/report"
)

type config struct {
	input      string
	truthCol   string
	predCol    string
	metrics    string
	support    float64
	topK       int
	miner      string
	eps        float64
	shapley    string
	global     bool
	corrective int
	lattice    string
	threshold  float64
	discretize string
	missing    string
	alpha      float64
	export     string
	htmlOut    string
	fairness   string
	compare    string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.input, "input", "", "input CSV file (default: stdin)")
	flag.StringVar(&cfg.truthCol, "truth", "truth", "ground-truth Boolean column")
	flag.StringVar(&cfg.predCol, "pred", "pred", "prediction Boolean column")
	flag.StringVar(&cfg.metrics, "metric", "FPR", "comma-separated metrics (FPR,FNR,ER,ACC,...)")
	flag.Float64Var(&cfg.support, "support", 0.05, "minimum support threshold s")
	flag.IntVar(&cfg.topK, "topk", 10, "number of top divergent patterns to print")
	flag.StringVar(&cfg.miner, "miner", "fpgrowth", "mining algorithm: fpgrowth, apriori or fpgrowth-parallel")
	flag.Float64Var(&cfg.eps, "eps", 0, "redundancy-pruning threshold ε (0 disables)")
	flag.StringVar(&cfg.shapley, "shapley", "", "pattern (attr=v,attr=v) to decompose; 'top' for the most divergent")
	flag.BoolVar(&cfg.global, "global", false, "print global vs individual item divergence")
	flag.IntVar(&cfg.corrective, "corrective", 0, "print the N strongest corrective items")
	flag.StringVar(&cfg.lattice, "lattice", "", "pattern whose subset lattice to render")
	flag.Float64Var(&cfg.threshold, "threshold", 0.15, "lattice divergence highlight threshold T")
	flag.StringVar(&cfg.discretize, "discretize", "", "comma-separated col=bins equal-frequency discretizations")
	flag.StringVar(&cfg.missing, "missing", "", "cell value treated as missing (records dropped)")
	flag.Float64Var(&cfg.alpha, "alpha", 0, "FDR level: report Benjamini-Hochberg significant patterns (0 disables)")
	flag.StringVar(&cfg.export, "export", "", "write the full ranked exploration of the first metric to this CSV file")
	flag.StringVar(&cfg.htmlOut, "html", "", "write a self-contained HTML report to this file")
	flag.StringVar(&cfg.fairness, "fairness", "", "print the group-fairness summary for this protected attribute")
	flag.StringVar(&cfg.compare, "compare", "", "second CSV (same schema): report per-pattern metric shifts between the two files")
	flag.Parse()

	if err := run(cfg, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "divexplorer:", err)
		os.Exit(1)
	}
}

// analyzeCSV loads one CSV stream through the configured preprocessing
// (label extraction, optional discretization) and explores it.
func analyzeCSV(cfg config, in io.Reader) (*divexplorer.Result, *divexplorer.Data, error) {
	opts := divexplorer.CSVOptions{TrimSpace: true}
	if cfg.missing != "" {
		opts.MissingValues = []string{cfg.missing}
		opts.DropMissing = true
	}
	data, err := divexplorer.ReadCSV(in, opts)
	if err != nil {
		return nil, nil, err
	}
	truth, err := divexplorer.ParseBoolColumn(data, cfg.truthCol)
	if err != nil {
		return nil, nil, err
	}
	pred, err := divexplorer.ParseBoolColumn(data, cfg.predCol)
	if err != nil {
		return nil, nil, err
	}
	data, err = data.DropAttrs(cfg.truthCol, cfg.predCol)
	if err != nil {
		return nil, nil, err
	}
	if cfg.discretize != "" {
		for _, spec := range strings.Split(cfg.discretize, ",") {
			col, bins, ok := strings.Cut(spec, "=")
			if !ok {
				return nil, nil, fmt.Errorf("bad -discretize entry %q (want col=bins)", spec)
			}
			n, err := strconv.Atoi(bins)
			if err != nil {
				return nil, nil, fmt.Errorf("bad bin count in %q: %w", spec, err)
			}
			data, err = divexplorer.DiscretizeEqualFrequency(data, col, n)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	exp, err := divexplorer.NewClassifierExplorer(data, truth, pred)
	if err != nil {
		return nil, nil, err
	}
	res, err := exp.Explore(cfg.support, divexplorer.WithMiner(cfg.miner))
	if err != nil {
		return nil, nil, err
	}
	return res, data, nil
}

func run(cfg config, stdin io.Reader, w io.Writer) error {
	if cfg.topK < 1 {
		return fmt.Errorf("-topk %d: want at least 1", cfg.topK)
	}
	if cfg.corrective < 0 {
		return fmt.Errorf("-corrective %d: want 0 (off) or more", cfg.corrective)
	}
	in := stdin
	if cfg.input != "" {
		f, err := os.Open(cfg.input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	res, data, err := analyzeCSV(cfg, in)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%d rows, %d attributes, %d frequent itemsets at s=%g (miner %s)\n\n",
		data.NumRows(), data.NumAttrs(), res.NumPatterns(), cfg.support, cfg.miner); err != nil {
		return err
	}

	var metrics []divexplorer.Metric
	for _, name := range strings.Split(cfg.metrics, ",") {
		m, err := divexplorer.MetricByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		metrics = append(metrics, m)
	}

	for _, m := range metrics {
		if _, err := fmt.Fprintf(w, "overall %s = %s\n", m.Name, report.FormatFloat(res.GlobalRate(m))); err != nil {
			return err
		}
		var rows []divexplorer.Ranked
		title := fmt.Sprintf("top %d patterns by Δ_%s", cfg.topK, m.Name)
		if cfg.eps > 0 {
			rows = res.TopKPruned(m, cfg.eps, cfg.topK, divexplorer.ByDivergence)
			title += fmt.Sprintf(" (pruned at ε=%g: %d itemsets remain)",
				cfg.eps, res.PrunedCount(m, cfg.eps))
		} else {
			rows = res.TopK(m, cfg.topK, divexplorer.ByDivergence)
		}
		tbl := report.NewTable(title, "Itemset", "Sup", "Rate", "Δ", "t")
		for _, rk := range rows {
			tbl.AddRow(res.Format(rk.Items), rk.Support, rk.Rate, rk.Divergence, rk.T)
		}
		if _, err := io.WriteString(w, tbl.String()+"\n"); err != nil {
			return err
		}

		if cfg.shapley != "" {
			if err := printShapley(w, res, m, cfg.shapley); err != nil {
				return err
			}
		}
		if cfg.global {
			if err := printGlobal(w, res, m); err != nil {
				return err
			}
		}
		if cfg.corrective > 0 {
			tbl := report.NewTable(fmt.Sprintf("top %d corrective items (%s)", cfg.corrective, m.Name),
				"Base", "Item", "Δ(I)", "Δ(I∪α)", "factor", "t")
			for _, c := range res.TopCorrective(m, cfg.corrective, 2.0) {
				tbl.AddRow(res.Format(c.Base), res.ItemName(c.Item), c.BaseDiv, c.ExtDiv, c.Factor, c.T)
			}
			if _, err := io.WriteString(w, tbl.String()+"\n"); err != nil {
				return err
			}
		}
		if cfg.alpha > 0 {
			sig := res.SignificantPatterns(m, cfg.alpha, divexplorer.ByAbsDivergence)
			if _, err := fmt.Fprintf(w, "%d patterns significant at FDR q=%g (of %d tested); strongest:\n",
				len(sig), cfg.alpha, res.NumPatterns()); err != nil {
				return err
			}
			for i, s := range sig {
				if i == 5 {
					break
				}
				if _, err := fmt.Fprintf(w, "  %-52s Δ=%+.3f p=%.2g adj=%.2g\n",
					res.Format(s.Items), s.Divergence, s.P, s.AdjP); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if cfg.lattice != "" {
			is, err := res.Itemset(splitPattern(cfg.lattice)...)
			if err != nil {
				return err
			}
			l, err := res.Lattice(is, m, cfg.threshold)
			if err != nil {
				return err
			}
			if _, err := io.WriteString(w, l.ASCII()+"\n"); err != nil {
				return err
			}
		}
	}
	if cfg.compare != "" {
		f, err := os.Open(cfg.compare)
		if err != nil {
			return err
		}
		other, _, err2 := analyzeCSV(cfg, f)
		_ = f.Close() // read-only file; nothing to recover from a Close error

		if err2 != nil {
			return fmt.Errorf("analyzing %s: %w", cfg.compare, err2)
		}
		shifts, err := divexplorer.Compare(res, other, metrics[0])
		if err != nil {
			return err
		}
		tbl := report.NewTable(
			fmt.Sprintf("largest %s shifts vs %s (net of the global movement)", metrics[0].Name, cfg.compare),
			"Itemset", "RateA", "RateB", "NetShift", "t")
		for i, s := range shifts {
			if i == cfg.topK {
				break
			}
			tbl.AddRow(res.Format(s.Items), s.RateA, s.RateB, s.NetShift, s.T)
		}
		if _, err := io.WriteString(w, tbl.String()+"\n"); err != nil {
			return err
		}
	}
	if cfg.fairness != "" {
		rep, err := res.Fairness(cfg.fairness)
		if err != nil {
			return err
		}
		tbl := report.NewTable(fmt.Sprintf("group fairness by %s", rep.AttrName),
			"Group", "Sup", "PosRate", "FPR", "FNR", "TPR", "PPV", "ACC")
		for _, g := range rep.Groups {
			tbl.AddRow(g.Value, g.Support, g.Positive, g.FPR, g.FNR, g.TPR, g.PPV, g.Accuracy)
		}
		if _, err := io.WriteString(w, tbl.String()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "gaps: parity=%s fpr=%s fnr=%s equal-opp=%s ppv=%s acc=%s\n\n",
			report.FormatFloat(rep.StatParityGap), report.FormatFloat(rep.FPRGap),
			report.FormatFloat(rep.FNRGap), report.FormatFloat(rep.EqualOppGap),
			report.FormatFloat(rep.PPVGap), report.FormatFloat(rep.AccuracyGap)); err != nil {
			return err
		}
	}
	if cfg.export != "" {
		f, err := os.Create(cfg.export)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.WriteCSV(f, metrics[0], divexplorer.ByDivergence); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "exported %d patterns to %s\n", res.NumPatterns(), cfg.export); err != nil {
			return err
		}
	}
	if cfg.htmlOut != "" {
		html, err := res.HTMLReport(divexplorer.HTMLReportConfig{
			Metrics:  metrics,
			TopK:     cfg.topK,
			Epsilon:  cfg.eps,
			FDRLevel: cfg.alpha,
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.htmlOut, html, 0o644); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "wrote HTML report to %s (%d bytes)\n", cfg.htmlOut, len(html)); err != nil {
			return err
		}
	}
	return nil
}

func printShapley(w io.Writer, res *divexplorer.Result, m divexplorer.Metric, spec string) error {
	var is divexplorer.Itemset
	var err error
	if spec == "top" {
		top := res.TopK(m, 1, divexplorer.ByDivergence)
		if len(top) == 0 {
			return fmt.Errorf("no pattern to decompose")
		}
		is = top[0].Items
	} else {
		is, err = res.Itemset(splitPattern(spec)...)
		if err != nil {
			return err
		}
	}
	cs, err := res.LocalShapley(is, m)
	if err != nil {
		return err
	}
	chart := report.NewBarChart(fmt.Sprintf("item contributions to Δ_%s of %s", m.Name, res.Format(is)))
	for _, c := range cs {
		chart.Add(res.ItemName(c.Item), c.Value)
	}
	_, err = io.WriteString(w, chart.String()+"\n")
	return err
}

func printGlobal(w io.Writer, res *divexplorer.Result, m divexplorer.Metric) error {
	cmp := res.CompareItemDivergence(m)
	tbl := report.NewTable(fmt.Sprintf("global vs individual item divergence (%s)", m.Name),
		"Item", "global Δ^g", "individual Δ")
	for _, c := range cmp {
		ind := report.FormatFloat(c.Individual)
		if math.IsNaN(c.Individual) {
			ind = "n/a"
		}
		tbl.AddRow(res.ItemName(c.Item), report.FormatFloat(c.Global), ind)
	}
	_, err := io.WriteString(w, tbl.String()+"\n")
	return err
}

func splitPattern(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
