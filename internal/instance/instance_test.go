package instance

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func mk(t *testing.T, g int64, jobs ...Job) *Instance {
	t.Helper()
	in, err := New(g, jobs)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		g    int64
		jobs []Job
		ok   bool
	}{
		{"empty ok", 1, nil, true},
		{"simple", 2, []Job{{Processing: 1, Release: 0, Deadline: 2}}, true},
		{"zero g", 0, nil, false},
		{"zero processing", 1, []Job{{Processing: 0, Release: 0, Deadline: 1}}, false},
		{"window too small", 1, []Job{{Processing: 3, Release: 0, Deadline: 2}}, false},
		{"tight window", 1, []Job{{Processing: 2, Release: 0, Deadline: 2}}, true},
		// d−r and r+p must fit in int64.
		{"window length overflows", 1, []Job{{Processing: 1, Release: -5e18, Deadline: 5e18}}, false},
		{"r+p overflows", 1, []Job{{Processing: 100, Release: math.MaxInt64 - 5, Deadline: math.MaxInt64}}, false},
		// Each window fits, but their lengths sum past int64.
		{"horizon overflows", 1, []Job{{Processing: 1, Release: -9e18, Deadline: -4e18},
			{ID: 1, Processing: 1, Release: 0, Deadline: 5e18}}, false},
		{"widest horizon that fits", 1, []Job{{Processing: 1, Release: -1, Deadline: 0},
			{ID: 1, Processing: 1, Release: math.MaxInt64 - 2, Deadline: math.MaxInt64 - 1}}, true},
		{"widest window that fits", 1, []Job{{Processing: 1, Release: -4e18, Deadline: 4e18}}, true},
		{"latest window that fits", 1, []Job{{Processing: 5, Release: math.MaxInt64 - 5, Deadline: math.MaxInt64}}, true},
	}
	for _, c := range cases {
		_, err := New(c.g, c.jobs)
		if (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrInvalid)) {
			t.Errorf("%s: err=%v ok=%v", c.name, err, c.ok)
		}
	}
}

func TestJobHelpers(t *testing.T) {
	j := Job{ID: 0, Processing: 2, Release: 1, Deadline: 5}
	if j.Window().Start != 1 || j.Window().End != 5 {
		t.Fatalf("Window: got %v", j.Window())
	}
	if j.Slack() != 2 {
		t.Fatalf("Slack: got %d", j.Slack())
	}
	if j.Rigid() {
		t.Fatal("job with slack should not be rigid")
	}
	r := Job{Processing: 4, Release: 1, Deadline: 5}
	if !r.Rigid() {
		t.Fatal("zero-slack job should be rigid")
	}
	if !strings.Contains(j.String(), "p=2") {
		t.Fatalf("String: %q", j.String())
	}
}

func TestNested(t *testing.T) {
	nested := mk(t, 2,
		Job{Processing: 1, Release: 0, Deadline: 10},
		Job{Processing: 1, Release: 2, Deadline: 5},
		Job{Processing: 1, Release: 6, Deadline: 9},
	)
	if !nested.Nested() {
		t.Fatal("laminar windows reported as not nested")
	}
	crossing := mk(t, 2,
		Job{Processing: 1, Release: 0, Deadline: 5},
		Job{Processing: 1, Release: 3, Deadline: 8},
	)
	if crossing.Nested() {
		t.Fatal("crossing windows reported as nested")
	}
}

func TestBounds(t *testing.T) {
	in := mk(t, 3,
		Job{Processing: 4, Release: 0, Deadline: 10},
		Job{Processing: 2, Release: 0, Deadline: 10},
		Job{Processing: 3, Release: 0, Deadline: 10},
	)
	if in.TotalProcessing() != 9 {
		t.Fatalf("TotalProcessing: %d", in.TotalProcessing())
	}
	if in.VolumeLowerBound() != 3 { // ceil(9/3)
		t.Fatalf("VolumeLowerBound: %d", in.VolumeLowerBound())
	}
	if in.MaxProcessingLowerBound() != 4 {
		t.Fatalf("MaxProcessingLowerBound: %d", in.MaxProcessingLowerBound())
	}
	if in.LowerBound() != 4 {
		t.Fatalf("LowerBound: %d", in.LowerBound())
	}
}

func TestHorizonAndSlots(t *testing.T) {
	in := mk(t, 1,
		Job{Processing: 1, Release: 2, Deadline: 4},
		Job{Processing: 1, Release: 7, Deadline: 9},
	)
	h, ok := in.Horizon()
	if !ok || h.Start != 2 || h.End != 9 {
		t.Fatalf("Horizon: %v %v", h, ok)
	}
	slots := in.SortedSlots()
	want := []int64{2, 3, 7, 8}
	if len(slots) != len(want) {
		t.Fatalf("SortedSlots: %v", slots)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("SortedSlots: %v want %v", slots, want)
		}
	}
}

func TestComponents(t *testing.T) {
	in := mk(t, 2,
		Job{Processing: 1, Release: 0, Deadline: 4},
		Job{Processing: 1, Release: 1, Deadline: 3},
		Job{Processing: 1, Release: 5, Deadline: 7},
		Job{Processing: 1, Release: 5, Deadline: 6},
	)
	comps, back := in.Components()
	if len(comps) != 2 {
		t.Fatalf("Components: got %d", len(comps))
	}
	total := 0
	for c, comp := range comps {
		if err := comp.Validate(); err != nil {
			t.Fatalf("component %d invalid: %v", c, err)
		}
		total += comp.N()
		for local, orig := range back[c] {
			if comp.Jobs[local].Processing != in.Jobs[orig].Processing ||
				comp.Jobs[local].Release != in.Jobs[orig].Release {
				t.Fatalf("backmap broken: comp %d local %d orig %d", c, local, orig)
			}
		}
	}
	if total != in.N() {
		t.Fatalf("components lose jobs: %d != %d", total, in.N())
	}
}

func TestComponentsTouchingWindowsSplit(t *testing.T) {
	in := mk(t, 1,
		Job{Processing: 1, Release: 0, Deadline: 2},
		Job{Processing: 1, Release: 2, Deadline: 4},
	)
	comps, _ := in.Components()
	if len(comps) != 2 {
		t.Fatalf("touching windows should split: got %d components", len(comps))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := mk(t, 5,
		Job{Processing: 3, Release: 0, Deadline: 9},
		Job{Processing: 1, Release: 2, Deadline: 4},
	)
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.G != in.G || got.N() != in.N() {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
	}
	for i := range in.Jobs {
		if got.Jobs[i] != in.Jobs[i] {
			t.Fatalf("job %d mismatch: %+v vs %+v", i, got.Jobs[i], in.Jobs[i])
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"g":0,"jobs":[]}`)); err == nil {
		t.Fatal("expected error for g=0")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}

func TestClone(t *testing.T) {
	in := mk(t, 2, Job{Processing: 1, Release: 0, Deadline: 2})
	cp := in.Clone()
	cp.Jobs[0].Processing = 99
	if in.Jobs[0].Processing != 1 {
		t.Fatal("Clone must deep-copy jobs")
	}
}

// TestReadJSONRejectsUnknownFields: a typo'd field name must be an
// ErrInvalid error, not a silently dropped key (regression: unknown
// fields used to be ignored, so {"jbs": ...} parsed as the empty
// instance).
func TestReadJSONRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"g":2,"jbs":[{"p":1,"r":0,"d":2}]}`,
		`{"g":2,"jobs":[{"p":1,"r":0,"d":2,"procesing":3}]}`,
		`{"g":2,"jobs":[],"extra":true}`,
	} {
		_, err := ReadJSON(strings.NewReader(body))
		if err == nil {
			t.Fatalf("unknown field accepted: %s", body)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("err=%v, want ErrInvalid for %s", err, body)
		}
	}
}
