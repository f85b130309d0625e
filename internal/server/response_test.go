package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/platform"
	"emts/internal/schedule"
	"emts/internal/sim"
)

// referenceResponse is marshalResponse as it was written before it appended
// the body itself: json.Marshal of the report's ScheduleResponse.
func referenceResponse(rep *sim.Report) ([]byte, error) {
	resp := ScheduleResponse{
		Algorithm:   rep.Algorithm,
		Model:       rep.Model,
		Graph:       rep.Graph,
		Tasks:       len(rep.Schedule.Entries),
		Cluster:     rep.Cluster,
		Makespan:    rep.Makespan,
		Utilization: rep.Utilization(),
		Schedule:    rep.Schedule,
	}
	if rep.EMTS != nil {
		resp.Evaluations = rep.EMTS.Evaluations
		resp.Rejections = rep.EMTS.Rejections
		resp.History = rep.EMTS.History
		resp.Generations = rep.EMTS.Generations
		if rep.EMTS.Islands > 1 {
			resp.Islands = rep.EMTS.Islands
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// randomReport builds a report from rng: names from the pool (escapes,
// invalid UTF-8 and U+2028 among them), floats across the exponent
// cutoffs of the JSON float format, nil and empty lists, EMTS fields zero or
// not, and, when poison is non-zero, one non-finite float at a place poison
// picks.
func randomReport(rng *rand.Rand, names []string, poison uint8) *sim.Report {
	name := func() string { return names[rng.Intn(len(names))] }
	float := func() float64 {
		f := []float64{0, 1, 0.1, 1e-7, 9.99e-7, 1e21, 1e20, 5e-324, math.MaxFloat64, math.Copysign(0, -1)}[rng.Intn(10)]
		if rng.Intn(2) == 0 {
			f = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		}
		return f
	}
	s := &schedule.Schedule{Graph: name(), Procs: rng.Intn(200)}
	if n := rng.Intn(12); n > 0 || rng.Intn(2) == 0 {
		s.Entries = make([]schedule.Entry, n)
		for i := range s.Entries {
			e := &s.Entries[i]
			e.Task, e.Start, e.End = dag.TaskID(i), float(), float()
			if k := rng.Intn(5); k > 0 || rng.Intn(2) == 0 {
				e.Procs = make([]int, k)
				for j := range e.Procs {
					e.Procs[j] = rng.Intn(130) - 2
				}
			}
		}
	}
	rep := &sim.Report{Algorithm: name(), Model: name(), Graph: name(),
		Cluster:  platform.Cluster{Name: name(), Procs: rng.Intn(300) - 50, SpeedGFlops: float()},
		Schedule: s, Makespan: float()}
	if rng.Intn(3) > 0 {
		ints := func() int { return []int{0, 1, 130, -5, math.MaxInt}[rng.Intn(5)] }
		rep.EMTS = &core.Result{Evaluations: ints(), Rejections: ints(), Generations: ints(), Islands: ints()}
		if n := rng.Intn(6); n > 0 || rng.Intn(2) == 0 {
			rep.EMTS.History = make([]float64, n)
			for i := range rep.EMTS.History {
				rep.EMTS.History[i] = float()
			}
		}
	}
	if poison > 0 {
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[int(poison)%3]
		var places []*float64
		places = append(places, &rep.Cluster.SpeedGFlops, &rep.Makespan)
		if rep.EMTS != nil {
			for i := range rep.EMTS.History {
				places = append(places, &rep.EMTS.History[i])
			}
		}
		for i := range s.Entries {
			places = append(places, &s.Entries[i].Start, &s.Entries[i].End)
		}
		*places[int(poison/3)%len(places)] = bad
	}
	return rep
}

// FuzzResponseMatchesJSON is the differential check of the response
// encoder: on random reports marshalResponse writes json.Marshal's bytes,
// and where a float is not finite both fail, with the same error text.
func FuzzResponseMatchesJSON(f *testing.F) {
	f.Add(int64(1), uint8(0), "emts5")
	f.Add(int64(2), uint8(1), "<a href>&amp;")
	f.Add(int64(3), uint8(5), "q\"uote\\\ttab\n\x00\x1f")
	f.Add(int64(4), uint8(0), "bad\xffutf8\xc3 sep par  héllo ☃")
	f.Add(int64(5), uint8(200), "")
	f.Fuzz(func(t *testing.T, seed int64, poison uint8, name string) {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"", "emts5", "grelon", "synthetic", name}
		for i := 0; i < 20; i++ {
			rep := randomReport(rng, names, poison)
			got, err := marshalResponse(rep)
			want, refErr := referenceResponse(rep)
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("marshalResponse error %v, json.Marshal %v", err, refErr)
			}
			if poison > 0 && err == nil {
				t.Fatal("a non-finite value was encoded")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("marshalResponse\n%s\njson.Marshal\n%s", got, want)
			}
		}
	})
}

// BenchmarkMarshalResponse encodes the response of an EMTS5 run on a
// 100-task random PTG on Grelon: the body every /v1/schedule miss writes.
func BenchmarkMarshalResponse(b *testing.B) {
	g := benchGraph(b)
	rep, err := sim.Run(g, platform.Grelon(), "synthetic", "emts5", 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := marshalResponse(rep); err != nil {
			b.Fatal(err)
		}
	}
}
