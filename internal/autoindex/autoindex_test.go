package autoindex

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mcts"
	"repro/internal/template"
	"repro/internal/workload/epidemic"
)

// readHeavyDB builds a database with a clear index opportunity.
func readHeavyDB(t testing.TB) (*engine.DB, []string) {
	t.Helper()
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE ev (id BIGINT, user_id BIGINT, kind TEXT, score DOUBLE, PRIMARY KEY (id))"); err != nil {
		t.Fatal(err)
	}
	var inserts []string
	for i := 0; i < 4000; i++ {
		inserts = append(inserts, fmt.Sprintf(
			"INSERT INTO ev (id, user_id, kind, score) VALUES (%d, %d, 'k%d', %d.0)",
			i, i%800, i%6, i%100))
	}
	harness.Run(db, inserts)
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	var reads []string
	for i := 0; i < 300; i++ {
		reads = append(reads, fmt.Sprintf("SELECT score FROM ev WHERE user_id = %d", i%800))
	}
	return db, reads
}

func TestTuneCreatesUsefulIndex(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Create) == 0 {
		t.Fatalf("expected index creation, got %+v", rec)
	}
	found := false
	for _, spec := range rec.Create {
		if spec.Key() == "ev(user_id)" {
			found = true
		}
	}
	if !found {
		t.Errorf("ev(user_id) should be recommended: %v", recKeys(rec))
	}
	if rec.EstimatedBenefit <= 0 {
		t.Errorf("benefit must be positive: %v", rec.EstimatedBenefit)
	}

	applyRep, err := m.Apply(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(applyRep.Created) == 0 || len(applyRep.Dropped) != 0 {
		t.Errorf("apply: created=%d dropped=%d", len(applyRep.Created), len(applyRep.Dropped))
	}
	if db.Catalog().Index("ai_ev_user_id") == nil {
		t.Error("applied index missing from catalog")
	}

	// The applied index must actually speed up the workload.
	before := harness.Run(db, reads)
	if _, err := db.Exec("DROP INDEX ai_ev_user_id"); err != nil {
		t.Fatal(err)
	}
	after := harness.Run(db, reads)
	if before.TotalCost >= after.TotalCost {
		t.Errorf("index should reduce measured cost: with=%0.f without=%0.f",
			before.TotalCost, after.TotalCost)
	}
}

func TestTemplateCompression(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	if m.TemplateStore().Len() != 1 {
		t.Errorf("300 point reads should collapse to 1 template: %d", m.TemplateStore().Len())
	}
	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.TemplatesUsed != 1 {
		t.Errorf("recommendation should see 1 template: %d", rec.TemplatesUsed)
	}
}

func TestRemovesNegativeIndexOnWriteHeavyWorkload(t *testing.T) {
	db, _ := readHeavyDB(t)
	// A hot-write-column index: score is updated constantly, never filtered.
	if _, err := db.Exec("CREATE INDEX idx_score ON ev (score)"); err != nil {
		t.Fatal(err)
	}
	m := New(db, Options{MCTS: mctsFast()})
	for i := 0; i < 200; i++ {
		if err := m.Observe(fmt.Sprintf(
			"UPDATE ev SET score = %d.0 WHERE id = %d", i%50, i)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Drop) != 1 || rec.Drop[0] != "idx_score" {
		t.Errorf("write-hot index should be dropped: %+v", recKeys(rec))
	}
	if _, err := m.Apply(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	if db.Catalog().Index("idx_score") != nil {
		t.Error("idx_score should be gone")
	}
}

func TestBudgetLimitsSelection(t *testing.T) {
	db, reads := readHeavyDB(t)
	// Also create demand for a second index.
	for i := 0; i < 100; i++ {
		reads = append(reads, fmt.Sprintf("SELECT id FROM ev WHERE kind = 'k%d' AND score > 90", i%6))
	}
	mUnlimited := New(db, Options{MCTS: mctsFast()})
	for _, sql := range reads {
		if err := mUnlimited.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	recU, err := mUnlimited.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	mTight := New(db, Options{Budget: 1, MCTS: mctsFast()}) // 1 byte: nothing fits
	for _, sql := range reads {
		if err := mTight.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	recT, err := mTight.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recT.Create) != 0 {
		t.Errorf("1-byte budget must block creation: %v", recKeys(recT))
	}
	if len(recU.Create) == 0 {
		t.Errorf("unlimited budget should create: %v", recKeys(recU))
	}
}

func TestEpidemicPhasesIncremental(t *testing.T) {
	// The paper's Fig. 2 walkthrough: indexes must track the shifting phases.
	db := engine.New()
	l := epidemic.NewLoader(5)
	if err := l.Load(db); err != nil {
		t.Fatal(err)
	}
	m := New(db, Options{MCTS: mctsFast()})
	m.Attach()
	defer m.Detach()

	// W1: read-only → expect indexes on temperature and community.
	harness.Run(db, l.W1(200))
	rec1, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(context.Background(), rec1); err != nil {
		t.Fatal(err)
	}
	keys1 := appliedKeys(rec1)
	if !keys1["person(temperature)"] || !keys1["person(community)"] {
		t.Errorf("W1 should index temperature and community: %v", recKeys(rec1))
	}

	// W2: insert-heavy → community index should be dropped (maintenance
	// exceeds benefit; temperature survives thanks to the periodic reads).
	m.TemplateStore().Decay(0.01, 0.5) // phase change: age out W1 templates
	harness.Run(db, l.W2(400))
	rec2, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(context.Background(), rec2); err != nil {
		t.Fatal(err)
	}
	dropped := make(map[string]bool)
	for _, d := range rec2.Drop {
		dropped[d] = true
	}
	if !dropped["ai_person_community"] {
		t.Errorf("W2 should drop the community index: drops=%v", rec2.Drop)
	}
	if dropped["ai_person_temperature"] {
		t.Errorf("W2 should keep the temperature index (reads still use it)")
	}
}

func TestDiagnoseTriggersOnProblems(t *testing.T) {
	db, reads := readHeavyDB(t)
	// An unused index: never probed by the observed workload.
	if _, err := db.Exec("CREATE INDEX idx_dead ON ev (kind)"); err != nil {
		t.Fatal(err)
	}
	m := New(db, Options{MCTS: mctsFast()})
	db.ResetUsage()
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Diagnose(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !contains(rep.RarelyUsed, "idx_dead") {
		t.Errorf("idx_dead should be rarely-used: %+v", rep)
	}
	if len(rep.BeneficialUncreated) == 0 {
		t.Errorf("ev(user_id) should be beneficial-uncreated: %+v", rep)
	}
	if !rep.NeedsTuning {
		t.Error("diagnosis should request tuning")
	}
}

func TestTuneNoopOnHealthySystem(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// First tune fixes the problem.
	if _, _, err := m.Tune(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Re-observe the same traffic; the system is now healthy.
	db.ResetUsage()
	for _, sql := range reads {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.Diagnose(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NeedsTuning {
		t.Errorf("healthy system should not re-tune: ratio %.2f, beneficial-uncreated %d, rarely-used %d, negative %d",
			rep.ProblemRatio, len(rep.BeneficialUncreated), len(rep.RarelyUsed), len(rep.Negative))
	}
}

func TestEmptyWorkloadRecommendation(t *testing.T) {
	db, _ := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Create) != 0 || len(rec.Drop) != 0 {
		t.Error("empty workload must recommend nothing")
	}
}

func recKeys(rec *Recommendation) string {
	var parts []string
	for _, c := range rec.Create {
		parts = append(parts, "+"+c.Key())
	}
	for _, d := range rec.Drop {
		parts = append(parts, "-"+d)
	}
	return strings.Join(parts, " ")
}

func appliedKeys(rec *Recommendation) map[string]bool {
	out := make(map[string]bool)
	for _, c := range rec.Create {
		out[c.Key()] = true
	}
	return out
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func mctsFast() mcts.Config {
	return mcts.Config{Iterations: 60, Seed: 1, Rollouts: 3}
}

func TestAttachObservesAutomatically(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast()})
	m.Attach()
	defer m.Detach()
	for _, sql := range reads[:50] {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if m.TemplateStore().Len() != 1 {
		t.Fatalf("attached manager should have observed 1 template, got %d",
			m.TemplateStore().Len())
	}
	// Applying a recommendation issues DDL through db.Exec; it must not
	// pollute the template store.
	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	if m.TemplateStore().Len() != 1 {
		t.Errorf("DDL leaked into template store: %d templates", m.TemplateStore().Len())
	}

	// A mixed stream through harness.Run: the attached store must equal a
	// bare store fed by ObserveSQL with the stream's DML statements in order,
	// whether they execute or fail, and with nothing else.
	dml := []string{
		"SELECT score FROM ev WHERE user_id = 3",
		"UPDATE ev SET score = 1.5 WHERE id = 7",
		"SELECT ghost FROM ev WHERE id = 1", // no such column: fails at execution
		"select id from ev where kind = 'k2' and score > 50",
		"DELETE FROM ev WHERE id = 3999",
		"SELECT score FROM ev WHERE user_id = 9",
	}
	stream := append(append(append([]string{}, dml[:3]...), "CREATE INDEX ev_kind ON ev (kind)"), dml[3:]...)
	if run := harness.Run(db, stream); run.Errors != 1 {
		t.Fatalf("stream: %d errors, want only the unknown column's", run.Errors)
	}
	ref := template.NewStore(0)
	for _, sql := range append(append([]string{}, reads[:50]...), dml...) {
		if _, _, err := ref.ObserveSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	got, want := m.TemplateStore().Templates(), ref.Templates()
	if len(got) != len(want) {
		t.Fatalf("attached store has %d templates, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Fingerprint != w.Fingerprint || g.Frequency != w.Frequency || g.LastSeen != w.LastSeen {
			t.Errorf("template %d: attached %q freq=%v last=%d, reference %q freq=%v last=%d",
				i, g.Fingerprint, g.Frequency, g.LastSeen, w.Fingerprint, w.Frequency, w.LastSeen)
		}
	}
}

func TestForecastModeTracksShift(t *testing.T) {
	db, reads := readHeavyDB(t)
	m := New(db, Options{MCTS: mctsFast(), UseForecast: true})
	// Window 1: heavy user_id reads.
	for _, sql := range reads {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
	}
	m.CloseWindow()
	// Window 2: the mix shifts to kind+score lookups; user_id reads stop.
	for i := 0; i < 300; i++ {
		if err := m.Observe(fmt.Sprintf(
			"SELECT id FROM ev WHERE kind = 'k%d' AND score > 95", i%6)); err != nil {
			t.Fatal(err)
		}
	}
	m.CloseWindow()

	rec, err := m.Recommend(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The forecast-weighted round should prioritize the new pattern.
	keys := appliedKeys(rec)
	if !keys["ev(kind,score)"] && !keys["ev(kind)"] && !keys["ev(score)"] {
		t.Errorf("forecast round should index the surging pattern: %v", recKeys(rec))
	}
}

func TestStateReport(t *testing.T) {
	db, reads := readHeavyDB(t)
	if _, err := db.Exec("CREATE INDEX idx_kind ON ev (kind)"); err != nil {
		t.Fatal(err)
	}
	m := New(db, Options{MCTS: mctsFast()})
	for _, sql := range reads[:50] {
		if err := m.Observe(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	rep := m.Report()
	if rep.Tables != 1 || rep.SecondaryIndexes != 1 || rep.Templates != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.IndexBytes <= 0 {
		t.Error("index bytes should be positive")
	}
	out := rep.String()
	if !strings.Contains(out, "idx_kind") || !strings.Contains(out, "probes=0") {
		t.Errorf("report should list the unused index:\n%s", out)
	}
}
