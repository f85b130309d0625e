package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"emts/internal/alloc"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
)

// instance is one scheduling input: a graph on a cluster under Model 2, its
// execution-time table, and the MCPA makespan that rel_makespan_mcpa divides
// by.
type instance struct {
	g       *dag.Graph
	cluster platform.Cluster
	tab     *model.Table
	mcpa    float64
	// body is the /v1/schedule request up to the seed value; requestBody
	// completes it. Empty for library-only corpora.
	body []byte
}

func newInstance(g *dag.Graph, c platform.Cluster) (*instance, error) {
	tab, err := model.NewTable(g, model.Synthetic{}, c)
	if err != nil {
		return nil, err
	}
	a, err := alloc.MCPA{}.Allocate(g, tab)
	if err != nil {
		return nil, fmt.Errorf("mcpa reference for %s: %w", g.Name(), err)
	}
	ref, err := listsched.Makespan(g, tab, a)
	if err != nil {
		return nil, fmt.Errorf("mcpa reference for %s: %w", g.Name(), err)
	}
	return &instance{g: g, cluster: c, tab: tab, mcpa: ref}, nil
}

// libCorpus returns n 100-task irregular DAGGEN PTGs (the configuration of
// the repository's EMTS10 micro-benchmark instance) on Grelon.
func libCorpus(rng *rand.Rand, n int) ([]*instance, error) {
	cfg := daggen.RandomConfig{N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2}
	out := make([]*instance, n)
	for i := range out {
		g, err := daggen.Random(cfg, daggen.DefaultCosts(), rng.Int63())
		if err != nil {
			return nil, err
		}
		if out[i], err = newInstance(g, platform.Grelon()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// servePool returns n distinct request graphs of 20–100 tasks with the
// request body prefix for emts5 without rejection. The pool's make-up is
// fixed and only the task costs and random shapes come from rng, so every
// seed asks for about the same work: entries rotate through FFT (8 and 16
// points: 39 and 95 tasks), Strassen (23 tasks) and DAGGEN random PTGs of
// sizes spread over 20–100, half of each kind on Chti and half on Grelon.
func servePool(rng *rand.Rand, n int) ([]*instance, error) {
	costs := daggen.DefaultCosts()
	out := make([]*instance, n)
	for i := range out {
		var (
			g   *dag.Graph
			err error
		)
		j := i / 3 // index among the entries of this kind
		seed := rng.Int63()
		switch i % 3 {
		case 0:
			g, err = daggen.FFT(8<<(j%2), costs, seed)
		case 1:
			g, err = daggen.Strassen(costs, seed)
		default:
			// 37 is coprime to 81, so consecutive entries step through
			// every size from 20 to 100 before one repeats.
			cfg := daggen.RandomConfig{N: 20 + j*37%81, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1}
			g, err = daggen.Random(cfg, costs, seed)
		}
		if err != nil {
			return nil, err
		}
		c, preset := platform.Chti(), "chti"
		if j/2%2 == 1 {
			c, preset = platform.Grelon(), "grelon"
		}
		in, err := newInstance(g, c)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		in.body = append(append([]byte(`{"graph":`), raw...),
			`,"cluster":{"preset":"`+preset+`"},"model":"synthetic","algorithm":"emts5","seed":`...)
		out[i] = in
	}
	return out, nil
}

// requestBody completes the instance's request with seed.
func (in *instance) requestBody(seed int64) []byte {
	b := make([]byte, 0, len(in.body)+21)
	b = append(b, in.body...)
	b = strconv.AppendInt(b, seed, 10)
	return append(b, '}')
}
