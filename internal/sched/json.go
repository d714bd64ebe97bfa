package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// fileFormat is the JSON shape of a schedule, as ReadJSON decodes it
// and AppendJSON writes it.
type fileFormat struct {
	G     int64      `json:"g"`
	Slots []fileSlot `json:"slots"`
}

type fileSlot struct {
	T    int64 `json:"t"`
	Jobs []int `json:"jobs"`
}

// AppendJSON appends the schedule's compact JSON encoding to b and
// returns the extended slice: {"g":…,"slots":[{"t":…,"jobs":[…]},…]}
// with active slots in increasing order, job IDs sorted within a
// slot, and "slots":null for an empty schedule. The bytes are exactly
// json.Marshal of the file format, written without reflection.
func (s *Schedule) AppendJSON(b []byte) []byte {
	return s.AppendJSONRelabeled(b, nil)
}

// AppendJSONRelabeled appends the bytes of s.Relabel(ids).AppendJSON(b)
// without building the relabeled copy: every job ID i is written as
// ids[i], and each slot's IDs are sorted after mapping. A nil ids
// writes the IDs as they are.
func (s *Schedule) AppendJSONRelabeled(b []byte, ids []int) []byte {
	b = append(b, `{"g":`...)
	b = strconv.AppendInt(b, s.G, 10)
	active := s.ActiveSlots()
	if len(active) == 0 {
		return append(b, `,"slots":null}`...)
	}
	// Reserve the usual size at once: ~24 bytes of slot framing and up
	// to 8 per job ID.
	units := 0
	for _, t := range active {
		units += len(s.Slots[t])
	}
	b = slices.Grow(b, 32+24*len(active)+8*units)
	b = append(b, `,"slots":[`...)
	var jobs []int
	for i, t := range active {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"t":`...)
		b = strconv.AppendInt(b, t, 10)
		b = append(b, `,"jobs":[`...)
		jobs = append(jobs[:0], s.Slots[t]...)
		if ids != nil {
			for k, id := range jobs {
				jobs[k] = ids[id]
			}
		}
		slices.Sort(jobs)
		for k, id := range jobs {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// WriteJSON writes AppendJSON's encoding followed by a newline.
func (s *Schedule) WriteJSON(w io.Writer) error {
	_, err := w.Write(append(s.AppendJSON(nil), '\n'))
	return err
}

// ReadJSON parses a schedule. Structural validity (per-slot capacity,
// window membership) is NOT checked here; use Validate with the
// originating instance.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	if ff.G < 1 {
		return nil, fmt.Errorf("sched: g=%d < 1", ff.G)
	}
	out := New(ff.G)
	for _, fs := range ff.Slots {
		for _, id := range fs.Jobs {
			out.Assign(fs.T, id)
		}
	}
	return out, nil
}
