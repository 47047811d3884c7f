package flowstage

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestPipelineRunsStagesInOrder(t *testing.T) {
	var order []string
	rec := &Recorder{}
	p := &Pipeline{
		Observer: rec,
		Stages: []Stage{
			{Name: "a", Run: func(ctx context.Context, st *StageStats) error {
				order = append(order, "a")
				st.Count("widgets", 3)
				return nil
			}},
			{Name: "b", Run: func(ctx context.Context, st *StageStats) error {
				order = append(order, "b")
				return nil
			}},
		},
	}
	stats, err := p.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("stage order = %v, want %v", order, want)
	}
	if want := []string{"start:a", "end:a", "start:b", "end:b"}; !reflect.DeepEqual(rec.Events(), want) {
		t.Fatalf("observer events = %v, want %v", rec.Events(), want)
	}
	if len(stats.Stages) != 2 {
		t.Fatalf("got %d stage stats, want 2", len(stats.Stages))
	}
	if got := stats.Stage("a").Counter("widgets"); got != 3 {
		t.Fatalf("widgets counter = %d, want 3", got)
	}
	if stats.Stage("nope") != nil {
		t.Fatal("Stage(unknown) should be nil")
	}
	if stats.StageSum() > stats.Total {
		t.Fatalf("StageSum %v exceeds Total %v", stats.StageSum(), stats.Total)
	}
}

func TestPipelineStopsOnErrorVerbatim(t *testing.T) {
	sentinel := errors.New("boom")
	ran := false
	p := &Pipeline{Stages: []Stage{
		{Name: "fail", Run: func(ctx context.Context, st *StageStats) error { return sentinel }},
		{Name: "after", Run: func(ctx context.Context, st *StageStats) error { ran = true; return nil }},
	}}
	stats, err := p.Run(context.Background())
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sentinel verbatim", err)
	}
	if ran {
		t.Fatal("stage after the failure ran")
	}
	if len(stats.Stages) != 1 || stats.Stages[0].Err != "boom" {
		t.Fatalf("failing stage stats not recorded: %+v", stats.Stages)
	}
}

func TestPipelineDoesNotAbortOnExpiredContext(t *testing.T) {
	// Degradation semantics: stages own cancellation; the pipeline keeps
	// running remaining stages even when the context is already dead.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	p := &Pipeline{Stages: []Stage{
		{Name: "a", Run: func(ctx context.Context, st *StageStats) error { ran++; return nil }},
		{Name: "b", Run: func(ctx context.Context, st *StageStats) error { ran++; return nil }},
	}}
	if _, err := p.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 2 {
		t.Fatalf("ran %d stages under a cancelled context, want 2", ran)
	}
}

func TestPipelineNilRun(t *testing.T) {
	p := &Pipeline{Stages: []Stage{{Name: "hole"}}}
	if _, err := p.Run(nil); err == nil {
		t.Fatal("want error for a stage without Run")
	}
}

func TestArtifactPanicsBeforeSet(t *testing.T) {
	var a Artifact[int]
	defer func() {
		if recover() == nil {
			t.Fatal("Get before Set did not panic")
		}
	}()
	a.Get()
}

func TestArtifactRoundTrip(t *testing.T) {
	var a Artifact[string]
	a.Set("x")
	if got := a.Get(); got != "x" {
		t.Fatalf("round trip failed: get=%q", got)
	}
}

func TestStageStatsHelpers(t *testing.T) {
	st := StageStats{}
	if st.CacheHitRate() != 0 {
		t.Fatal("hit rate of untouched cache should be 0")
	}
	st.CacheHits, st.CacheMisses = 3, 1
	if got := st.CacheHitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
	st.Count("x", 0) // zero deltas are dropped
	if st.Counters != nil {
		t.Fatal("zero delta allocated the counter map")
	}
	st.Count("x", 2)
	st.Count("x", 2)
	if st.Counter("x") != 4 {
		t.Fatalf("counter = %d, want 4", st.Counter("x"))
	}
}

func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Fatal("OrNop(nil) should be Nop")
	}
	r := &Recorder{}
	if OrNop(r) != Observer(r) {
		t.Fatal("OrNop should pass a non-nil observer through")
	}
}
