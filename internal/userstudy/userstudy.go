// Package userstudy reproduces the controlled experiment of Sec. 6.6:
// bias is injected into a COMPAS training subgroup ({age>45, charge=M} —
// all outcomes changed to "recidivate"), a multi-layer perceptron is
// trained on the modified data, and the misclassifications of the biased
// model on an unmodified test set are analyzed with DivExplorer, Slice
// Finder and LIME.
//
// The original study measured how well 35 undergraduate participants
// identified the injected subgroup from each tool's output. Human
// participants cannot be part of a library, so this package substitutes
// simulated respondents: each tool's REAL output is turned into a ranked
// candidate-pattern list (the information a participant would scan), and
// a simulated user samples five candidates with rank-weighted noise, as
// documented in DESIGN.md §4. Hits and partial hits are scored exactly
// as in the paper: a hit selects the injected itemset itself, a partial
// hit selects one of its two items alone.
package userstudy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/classifier"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fpm"
	"repro/internal/lime"
	"repro/internal/slicefinder"
)

// Group identifies one arm of the study.
type Group int

// Study arms, matching the paper's groups 1-4.
const (
	GroupControl Group = iota + 1 // random (mis)classified examples only
	GroupDivExplorer
	GroupSliceFinder
	GroupLIME
)

func (g Group) String() string {
	switch g {
	case GroupControl:
		return "control"
	case GroupDivExplorer:
		return "DivExplorer"
	case GroupSliceFinder:
		return "SliceFinder"
	case GroupLIME:
		return "LIME"
	default:
		return fmt.Sprintf("group%d", int(g))
	}
}

// Config parameterizes the study.
type Config struct {
	Seed int64
	// UsersPerGroup defaults to 9 (35 participants over 4 groups).
	UsersPerGroup int
	// Support threshold for the DivExplorer arm (paper: 0.05).
	Support float64
	// TestFraction of the data held out for analysis (default 0.3).
	TestFraction float64
	// epochsOverride tunes MLP training in tests; 0 uses the default.
	epochsOverride int
}

func (c *Config) setDefaults() {
	if c.UsersPerGroup <= 0 {
		c.UsersPerGroup = 9
	}
	if c.Support <= 0 {
		c.Support = 0.05
	}
	if c.TestFraction <= 0 {
		c.TestFraction = 0.3
	}
	if c.epochsOverride <= 0 {
		c.epochsOverride = 40
	}
}

// GroupResult aggregates simulated-respondent outcomes for one arm.
type GroupResult struct {
	Group       Group
	Users       int
	Hits        int // selected the injected pattern itself
	PartialHits int // selected exactly one of the two injected items
	// Candidates is the ranked pattern list derived from the tool output
	// (for reporting).
	Candidates []string
}

// HitRate returns the full-hit fraction.
func (g GroupResult) HitRate() float64 { return float64(g.Hits) / float64(g.Users) }

// PartialRate returns the partial-hit fraction (exclusive of full hits).
func (g GroupResult) PartialRate() float64 { return float64(g.PartialHits) / float64(g.Users) }

// Result is the full study outcome.
type Result struct {
	Groups []GroupResult
	// InjectedPattern is the ground-truth biased subgroup.
	InjectedPattern string
	// BiasedAccuracy is the biased model's test accuracy, for context.
	BiasedAccuracy float64
}

// Run executes the study end to end.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// 1. Data: synthetic COMPAS, split into train and test.
	g := datagen.COMPAS(cfg.Seed + 1)
	n := g.Data.NumRows()
	perm := rng.Perm(n)
	nTest := int(float64(n) * cfg.TestFraction)
	testRows, trainRows := perm[:nTest], perm[nTest:]

	train := g.Data.Subset(trainRows)
	test := g.Data.Subset(testRows)
	trainTruth := make([]bool, len(trainRows))
	for i, r := range trainRows {
		trainTruth[i] = g.Truth[r]
	}
	testTruth := make([]bool, len(testRows))
	for i, r := range testRows {
		testTruth[i] = g.Truth[r]
	}

	// 2. Inject bias: all training instances in {age=>45, charge=M} are
	// labelled recidivist.
	ageIdx := g.Data.AttrIndex("age")
	chargeIdx := g.Data.AttrIndex("charge")
	if ageIdx < 0 || chargeIdx < 0 {
		return nil, fmt.Errorf("userstudy: COMPAS schema missing age/charge")
	}
	injected := 0
	for i := range train.Rows {
		if train.Value(i, ageIdx) == ">45" && train.Value(i, chargeIdx) == "M" {
			trainTruth[i] = true
			injected++
		}
	}
	if injected == 0 {
		return nil, fmt.Errorf("userstudy: no instances matched the injection pattern")
	}

	// 3. Train the biased MLP and classify the unmodified test set.
	mlp, err := classifier.TrainMLP(train, trainTruth, classifier.MLPConfig{
		Hidden: 16, Epochs: cfg.epochsOverride, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, fmt.Errorf("userstudy: training biased model: %w", err)
	}
	testPred := classifier.PredictAll(mlp, test)

	// 4. Tool outputs → ranked candidate lists.
	divCands, err := divExplorerCandidates(test, testTruth, testPred, cfg.Support)
	if err != nil {
		return nil, err
	}
	sfCands, err := sliceFinderCandidates(test, testTruth, mlp)
	if err != nil {
		return nil, err
	}
	limeCands, err := limeCandidates(test, testTruth, testPred, mlp, rng)
	if err != nil {
		return nil, err
	}
	careful, casual := controlCandidates(test, testTruth, testPred, rng)

	// 5. Simulated respondents. Control users are heterogeneous: a
	// minority inspect the shown examples carefully (comparing error and
	// non-error value frequencies), the rest skim raw frequencies — this
	// mirrors the paper's finding that only 20% of group 1 identified the
	// bias from raw examples.
	target := pattern{"age=>45", "charge=M"}
	res := &Result{
		InjectedPattern: target.String(),
		BiasedAccuracy:  classifier.Accuracy(testTruth, testPred),
	}
	for _, arm := range []struct {
		group Group
		cands func(u int) []pattern
		shown []pattern
	}{
		{GroupControl, func(int) []pattern {
			if rng.Float64() < 1.0/3 {
				return careful
			}
			return casual
		}, careful},
		{GroupDivExplorer, func(int) []pattern { return divCands }, divCands},
		{GroupSliceFinder, func(int) []pattern { return sfCands }, sfCands},
		{GroupLIME, func(int) []pattern { return limeCands }, limeCands},
	} {
		gr := GroupResult{Group: arm.group, Users: cfg.UsersPerGroup}
		for _, c := range arm.shown {
			gr.Candidates = append(gr.Candidates, c.String())
		}
		for u := 0; u < cfg.UsersPerGroup; u++ {
			sel := simulateUser(rng, arm.cands(u), 5)
			hit, partial := scoreSelection(sel, target)
			if hit {
				gr.Hits++
			} else if partial {
				gr.PartialHits++
			}
		}
		res.Groups = append(res.Groups, gr)
	}
	return res, nil
}

// RunReplicated repeats the study n times with derived seeds and
// averages the per-group hit and partial-hit counts, reducing the
// variance of any single draw (data split, model initialization,
// simulated-respondent noise). The returned Result carries the summed
// counts with Users scaled accordingly, so HitRate/PartialRate are the
// replication means; Candidates and InjectedPattern come from the first
// replicate.
func RunReplicated(cfg Config, n int) (*Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("userstudy: replication count %d < 1", n)
	}
	var agg *Result
	for rep := 0; rep < n; rep++ {
		c := cfg
		c.Seed = cfg.Seed + int64(rep)*7919
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("userstudy: replicate %d: %w", rep, err)
		}
		if agg == nil {
			agg = res
			continue
		}
		agg.BiasedAccuracy += res.BiasedAccuracy
		for i := range agg.Groups {
			agg.Groups[i].Users += res.Groups[i].Users
			agg.Groups[i].Hits += res.Groups[i].Hits
			agg.Groups[i].PartialHits += res.Groups[i].PartialHits
		}
	}
	agg.BiasedAccuracy /= float64(n)
	return agg, nil
}

// pattern is a canonical (sorted) list of "attr=value" strings.
type pattern []string

func newPattern(items ...string) pattern {
	p := append(pattern(nil), items...)
	sort.Strings(p)
	return p
}

func (p pattern) String() string {
	out := ""
	for i, s := range p {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

func (p pattern) equal(q pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// scoreSelection implements the paper's metrics: hit if the injected
// itemset is among the selections; partial hit if a selection is exactly
// one of the two injected items.
func scoreSelection(sel []pattern, target pattern) (hit, partial bool) {
	for _, s := range sel {
		if s.equal(target) {
			hit = true
		}
		if len(s) == 1 {
			for _, item := range target {
				if s[0] == item {
					partial = true
				}
			}
		}
	}
	return hit, partial
}

// simulateUser samples k distinct candidates with probability decaying in
// rank (a participant is most likely to report the top items of the
// information shown, with some noise).
func simulateUser(rng *rand.Rand, cands []pattern, k int) []pattern {
	if len(cands) == 0 {
		return nil
	}
	idx := make([]int, len(cands))
	w := make([]float64, len(cands))
	for i := range cands {
		idx[i] = i
		w[i] = math.Exp(-float64(i) / 2.5)
	}
	var out []pattern
	for len(out) < k && len(idx) > 0 {
		var total float64
		for _, i := range idx {
			total += w[i]
		}
		x := rng.Float64() * total
		pick := len(idx) - 1
		for pos, i := range idx {
			x -= w[i]
			if x < 0 {
				pick = pos
				break
			}
		}
		out = append(out, cands[idx[pick]])
		idx = append(idx[:pick], idx[pick+1:]...)
	}
	return out
}

// divExplorerCandidates runs the real DivExplorer pipeline: top FPR- and
// FNR-divergent itemsets (the paper showed the top 6 plus global item
// divergence).
func divExplorerCandidates(test *dataset.Dataset, testTruth, testPred []bool, support float64) ([]pattern, error) {
	classes, err := core.ConfusionClasses(testTruth, testPred)
	if err != nil {
		return nil, err
	}
	db, err := fpm.NewTxDB(test, classes, core.NumConfusionClasses)
	if err != nil {
		return nil, err
	}
	r, err := core.Explore(db, support, core.Options{})
	if err != nil {
		return nil, err
	}
	var out []pattern
	seen := map[string]bool{}
	appendTop := func(rs []core.Ranked) {
		for _, rk := range rs {
			p := newPattern(db.Catalog.Names(rk.Items)...)
			if key := p.String(); !seen[key] {
				seen[key] = true
				out = append(out, p)
			}
		}
	}
	// The injected bias turns the subgroup's labels positive in training,
	// so on clean test data the model produces false positives there:
	// FPR divergence leads, FNR shown as well. The top-6 list is the
	// ε-pruned summary (Sec. 3.5) — the tool's intended presentation —
	// so one saturated pattern family cannot crowd out the others.
	appendTop(r.TopKPruned(core.FPR, 0.02, 6, core.ByDivergence))
	appendTop(r.TopKPruned(core.FNR, 0.02, 3, core.ByDivergence))
	// Group 2 was also shown the global item divergence chart; a
	// participant reads its leading items as suspects — alone, and as the
	// combination of the top two.
	global := r.CompareItemDivergence(core.FPR)
	if len(global) >= 2 && db.Catalog.Attr(global[0].Item) != db.Catalog.Attr(global[1].Item) {
		p := newPattern(db.Catalog.Name(global[0].Item), db.Catalog.Name(global[1].Item))
		if key := p.String(); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	for i := 0; i < 3 && i < len(global); i++ {
		p := newPattern(db.Catalog.Name(global[i].Item))
		if key := p.String(); !seen[key] {
			seen[key] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// sliceFinderCandidates runs the real Slice Finder baseline with its
// defaults and degree 3, as in the study, on the model's log loss (the
// classifier loss the original tool consumes).
func sliceFinderCandidates(test *dataset.Dataset, testTruth []bool, model *classifier.MLP) ([]pattern, error) {
	proba := make([]float64, test.NumRows())
	for i, row := range test.Rows {
		proba[i] = model.PredictProba(row)
	}
	loss, err := slicefinder.LogLoss(testTruth, proba)
	if err != nil {
		return nil, err
	}
	f, err := slicefinder.New(test, loss, slicefinder.Config{MaxDegree: 3})
	if err != nil {
		return nil, err
	}
	var out []pattern
	for _, s := range f.Find() {
		out = append(out, newPattern(f.Catalog().Names(s.Items)...))
	}
	return out, nil
}

// limeCandidates explains 8 misclassified and 8 correctly classified test
// instances (as shown to group 4) and derives the candidate list a
// participant would: attribute values ranked by aggregate weight over the
// misclassified explanations, with pairs of the top values interleaved
// (a participant combining recurring factors).
func limeCandidates(test *dataset.Dataset, testTruth, testPred []bool, model *classifier.MLP, rng *rand.Rand) ([]pattern, error) {
	e, err := lime.New(test, model.PredictProba, lime.Config{Samples: 400, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	var mis, cor []int
	for i := range testTruth {
		if testTruth[i] != testPred[i] {
			mis = append(mis, i)
		} else {
			cor = append(cor, i)
		}
	}
	rng.Shuffle(len(mis), func(i, j int) { mis[i], mis[j] = mis[j], mis[i] })
	rng.Shuffle(len(cor), func(i, j int) { cor[i], cor[j] = cor[j], cor[i] })
	var misEx []lime.Explanation
	for _, i := range firstN(mis, 8) {
		ex, err := e.Explain(test.Rows[i])
		if err != nil {
			return nil, err
		}
		misEx = append(misEx, ex)
	}
	// Correct explanations are shown too but a participant hunting for
	// error patterns keys on the misclassified stack; we still compute a
	// few to mirror the information volume.
	for _, i := range firstN(cor, 8) {
		if _, err := e.Explain(test.Rows[i]); err != nil {
			return nil, err
		}
	}
	// A participant scanning the stack of per-instance explanations keys
	// on (a) attribute values recurring with large weights and (b) the
	// combinations of the two strongest features within one explanation —
	// the most natural pattern hypothesis LIME output suggests.
	agg := lime.AggregateWeights(misEx)
	pairPat := map[string]pattern{}
	pairWeight := map[string]float64{}
	for _, ex := range misEx {
		if len(ex.Features) >= 2 {
			a, b := ex.Features[0], ex.Features[1]
			if a.Attr != b.Attr {
				p := newPattern(a.Name, b.Name)
				pairPat[p.String()] = p
				pairWeight[p.String()] += math.Abs(a.Weight) + math.Abs(b.Weight)
			}
		}
	}
	type scoredPair struct {
		p pattern
		w float64
	}
	var pairs []scoredPair
	for k, w := range pairWeight {
		pairs = append(pairs, scoredPair{pairPat[k], w})
	}
	sort.Slice(pairs, func(i, j int) bool {
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if pairs[i].w != pairs[j].w {
			return pairs[i].w > pairs[j].w
		}
		return pairs[i].p.String() < pairs[j].p.String()
	})
	// Singles first (the immediate reading of the aggregate weights),
	// then the loudest top-2 feature pairs: forming combinations is the
	// less obvious second step for a participant, so pairs rank lower.
	var out []pattern
	for rank := 0; rank < len(agg) && rank < 6; rank++ {
		out = append(out, newPattern(agg[rank].Name))
	}
	for rank := 0; rank < len(pairs) && rank < 6; rank++ {
		out = append(out, pairs[rank].p)
	}
	return out, nil
}

// controlCandidates simulates group 1 and returns two candidate lists.
// The careful list compares how often each attribute value appears among
// a small random sample of misclassified examples against a comparable
// sample of correctly classified ones, ranking values (and value pairs)
// most over-represented in the errors. The casual list ranks raw
// frequencies among the misclassified sample only, which is dominated by
// marginally common values and rarely surfaces the bias.
func controlCandidates(test *dataset.Dataset, testTruth, testPred []bool, rng *rand.Rand) (careful, casual []pattern) {
	var mis, cor []int
	for i := range testTruth {
		if testTruth[i] != testPred[i] {
			mis = append(mis, i)
		} else {
			cor = append(cor, i)
		}
	}
	rng.Shuffle(len(mis), func(i, j int) { mis[i], mis[j] = mis[j], mis[i] })
	rng.Shuffle(len(cor), func(i, j int) { cor[i], cor[j] = cor[j], cor[i] })
	misSample := firstN(mis, 16)
	corSample := firstN(cor, 16)

	nameOf := func(r, a int) string {
		return test.Attrs[a].Name + "=" + test.Attrs[a].Values[test.Rows[r][a]]
	}
	misCount := map[string]int{}
	corCount := map[string]int{}
	pairMis := map[string]int{}
	pairPat := map[string]pattern{}
	for _, r := range misSample {
		names := make([]string, test.NumAttrs())
		for a := 0; a < test.NumAttrs(); a++ {
			names[a] = nameOf(r, a)
			misCount[names[a]]++
		}
		for a := 0; a < len(names); a++ {
			for b := a + 1; b < len(names); b++ {
				p := newPattern(names[a], names[b])
				pairPat[p.String()] = p
				pairMis[p.String()]++
			}
		}
	}
	for _, r := range corSample {
		for a := 0; a < test.NumAttrs(); a++ {
			corCount[nameOf(r, a)]++
		}
	}
	type scored struct {
		p    pattern
		lift float64
	}
	var singles []scored
	for name, n := range misCount {
		lift := float64(n) / float64(corCount[name]+1)
		singles = append(singles, scored{newPattern(name), lift})
	}
	sort.Slice(singles, func(i, j int) bool {
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if singles[i].lift != singles[j].lift {
			return singles[i].lift > singles[j].lift
		}
		return singles[i].p.String() < singles[j].p.String()
	})
	// Pairs among the over-represented singles, ranked by error count.
	topSingle := map[string]bool{}
	for i := 0; i < 4 && i < len(singles); i++ {
		topSingle[singles[i].p[0]] = true
	}
	var pairs []scored
	for k, n := range pairMis {
		p := pairPat[k]
		if topSingle[p[0]] && topSingle[p[1]] {
			pairs = append(pairs, scored{p, float64(n)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if pairs[i].lift != pairs[j].lift {
			return pairs[i].lift > pairs[j].lift
		}
		return pairs[i].p.String() < pairs[j].p.String()
	})
	for i := 0; i < 6 && i < len(singles); i++ {
		careful = append(careful, singles[i].p)
		if i < len(pairs) {
			careful = append(careful, pairs[i].p)
		}
	}

	// Casual inspection: raw value frequency among the errors.
	type counted struct {
		p pattern
		n int
	}
	var freq []counted
	for name, n := range misCount {
		freq = append(freq, counted{newPattern(name), n})
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].n != freq[j].n {
			return freq[i].n > freq[j].n
		}
		return freq[i].p.String() < freq[j].p.String()
	})
	for i := 0; i < 10 && i < len(freq); i++ {
		casual = append(casual, freq[i].p)
	}
	return careful, casual
}

func firstN(xs []int, n int) []int {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}
