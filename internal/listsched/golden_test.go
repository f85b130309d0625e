// Golden corpus of the mapping step. testdata/map_golden.json pins, for a
// seeded grid of instances, every entry of the full schedule Map builds —
// processor sets included — together with Makespan and MakespanBounded at
// bounds around the makespan. It was recorded from the mapper that kept a
// per-processor (availability, index) order, so reproducing it pins that
// the availability profile chooses the same processors at the same times.
//
// Regenerate it only for a deliberate change of mapping behavior. Name the
// package first: go test hands an unknown flag such as -update-golden, and
// every argument after it, to the test binary.
//
//	go test ./internal/listsched -run '^TestMapGoldenSchedules$' -update-golden
package listsched

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"emts/internal/model"
	"emts/internal/schedule"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/map_golden.json from the current mapper")

// boundFactors are the MakespanBounded bounds of each golden instance, as
// multiples of its makespan: far below, just below, exactly at, just above
// and far above.
var boundFactors = []float64{0.3, 0.9, 1, 1.0000001, 2}

// mapGolden is one corpus entry. Floats are stored as IEEE-754 bits.
type mapGolden struct {
	Name         string `json:"name"`
	Digest       string `json:"digest"`
	MakespanBits string `json:"makespan_bits"`
	// Bounded holds one MakespanBounded outcome per boundFactors entry: the
	// makespan bits, "rejected" or "prefilter".
	Bounded []string `json:"bounded"`
}

func bitsHex(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// entriesDigest is a SHA-256 over every entry's task, start and end bits,
// and processor list, in task order.
func entriesDigest(entries []schedule.Entry) string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, e := range entries {
		word(uint64(e.Task))
		word(math.Float64bits(e.Start))
		word(math.Float64bits(e.End))
		word(uint64(len(e.Procs)))
		for _, p := range e.Procs {
			word(uint64(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mapGoldenCorpus maps the grid gridProcs × {Amdahl, Synthetic} × 10
// instances, half of them with identical tasks.
func mapGoldenCorpus(t *testing.T) []mapGolden {
	t.Helper()
	var corpus []mapGolden
	for _, m := range []model.Model{model.Amdahl{}, model.Synthetic{}} {
		for _, procs := range gridProcs {
			for i := 0; i < 10; i++ {
				rng := rand.New(rand.NewSource(int64(1000*procs + i)))
				g, tab, alloc := gridInstance(rng, procs, m, i%2 == 0)
				mp, err := NewMapper(g, tab)
				if err != nil {
					t.Fatal(err)
				}
				s, err := mp.Map(alloc)
				if err != nil {
					t.Fatal(err)
				}
				ms, err := mp.Makespan(alloc)
				if err != nil {
					t.Fatal(err)
				}
				entry := mapGolden{
					Name:         fmt.Sprintf("%s/P%d/%d", m.Name(), procs, i),
					Digest:       entriesDigest(s.Entries),
					MakespanBits: bitsHex(ms),
				}
				for _, f := range boundFactors {
					got, err := mp.MakespanBounded(alloc, f*ms)
					switch {
					case errors.Is(err, schedule.ErrRejectedPrefilter):
						entry.Bounded = append(entry.Bounded, "prefilter")
					case errors.Is(err, schedule.ErrRejected):
						entry.Bounded = append(entry.Bounded, "rejected")
					case err != nil:
						t.Fatal(err)
					default:
						entry.Bounded = append(entry.Bounded, bitsHex(got))
					}
				}
				corpus = append(corpus, entry)
			}
		}
	}
	return corpus
}

// TestMapGoldenSchedules reproduces testdata/map_golden.json entry by entry.
func TestMapGoldenSchedules(t *testing.T) {
	path := filepath.Join("testdata", "map_golden.json")
	got := mapGoldenCorpus(t)
	if *updateGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", " ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []mapGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d entries, %s has %d", len(got), path, len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: got %+v, want %+v", want[i].Name, got[i], want[i])
		}
	}
}
