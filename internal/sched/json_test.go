package sched

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := New(3)
	s.Assign(2, 0)
	s.Assign(2, 1)
	s.Assign(5, 0)

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.G != 3 || got.NumActive() != 2 {
		t.Fatalf("round trip: g=%d active=%d", got.G, got.NumActive())
	}
	if len(got.Slots[2]) != 2 || len(got.Slots[5]) != 1 {
		t.Fatalf("round trip slots: %v", got.Slots)
	}
}

func TestScheduleJSONRejects(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"g":0,"slots":[]}`)); err == nil {
		t.Fatal("g=0 must be rejected")
	}
	if _, err := ReadJSON(strings.NewReader(`garbage`)); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
}

// reflectJSON is the reflection encoding AppendJSON replaces: the file
// format built slot by slot and passed to json.Marshal.
func reflectJSON(t *testing.T, s *Schedule) []byte {
	t.Helper()
	ff := fileFormat{G: s.G}
	for _, slot := range s.ActiveSlots() {
		jobs := append([]int(nil), s.Slots[slot]...)
		sort.Ints(jobs)
		ff.Slots = append(ff.Slots, fileSlot{T: slot, Jobs: jobs})
	}
	b, err := json.Marshal(ff)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAppendJSONMatchesReflection: the hand-written encoder emits the
// exact bytes json.Marshal does, for random schedules (negative and
// large slots, unsorted job lists and emptied slots included) and the
// empty one.
func TestAppendJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		s := New(1 + rng.Int63n(1<<40))
		if trial > 0 {
			// Each job takes distinct slots among eight around a random
			// origin, so most slots hold several jobs; the units are
			// assigned in shuffled order, so slot lists arrive unsorted.
			origin := rng.Int63n(1<<40) - 1<<39
			var units [][2]int64
			for _, id := range rng.Perm(1000)[:rng.Intn(12)] {
				for _, k := range rng.Perm(8)[:1+rng.Intn(8)] {
					units = append(units, [2]int64{origin + int64(k), int64(id)})
				}
			}
			rng.Shuffle(len(units), func(a, b int) { units[a], units[b] = units[b], units[a] })
			for _, u := range units {
				s.Assign(u[0], int(u[1]))
			}
			if trial%7 == 0 {
				s.Slots[-5] = nil
			}
		}
		want := reflectJSON(t, s)
		if got := s.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
		if got := s.AppendJSON([]byte("x")); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("trial %d: AppendJSON did not append to its argument: %s", trial, got)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), append(want, '\n')) {
			t.Fatalf("trial %d: WriteJSON %q", trial, buf.Bytes())
		}
	}
	if got := New(2).AppendJSON(nil); string(got) != `{"g":2,"slots":null}` {
		t.Fatalf("empty schedule: %s", got)
	}
}

// TestAppendJSONRelabeledMatchesRelabel: encoding through a relabeling
// writes the bytes of encoding the relabeled copy, for random
// schedules under random permutations, and nil ids is AppendJSON.
func TestAppendJSONRelabeledMatchesRelabel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(50)
		s := New(1 + rng.Int63n(8))
		if trial > 0 {
			// Few slots, so most hold several jobs whose order matters.
			for k := rng.Intn(60); k > 0; k-- {
				s.Assign(rng.Int63n(16)-8, rng.Intn(n))
			}
			if trial%7 == 0 {
				s.Slots[-5] = nil
			}
		}
		ids := rng.Perm(n)
		want := s.Relabel(ids).AppendJSON([]byte("x"))
		if got := s.AppendJSONRelabeled([]byte("x"), ids); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
		if got, want := s.AppendJSONRelabeled(nil, nil), s.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: nil ids\n got %s\nwant %s", trial, got, want)
		}
	}
}
