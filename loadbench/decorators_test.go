package main

import (
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// faces lists every optional interface the engine, the shard coordinator
// or the transport server dispatches on.
var faces = []struct {
	name string
	typ  reflect.Type
}{
	{"wrapper.Source", reflect.TypeFor[wrapper.Source]()},
	{"wrapper.SourceExecutor", reflect.TypeFor[wrapper.SourceExecutor]()},
	{"shard.Backend", reflect.TypeFor[shard.Backend]()},
	{"wrapper.ConcurrentExecutor", reflect.TypeFor[wrapper.ConcurrentExecutor]()},
	{"wrapper.ExistsExecutor", reflect.TypeFor[wrapper.ExistsExecutor]()},
	{"wrapper.StreamExecutor", reflect.TypeFor[wrapper.StreamExecutor]()},
	{"wrapper.ContextExecutor", reflect.TypeFor[wrapper.ContextExecutor]()},
	{"wrapper.ContextExistsExecutor", reflect.TypeFor[wrapper.ContextExistsExecutor]()},
	{"wrapper.ContextStreamExecutor", reflect.TypeFor[wrapper.ContextStreamExecutor]()},
	{"wrapper.StatisticsProvider", reflect.TypeFor[wrapper.StatisticsProvider]()},
	{"wrapper.TableVersioner", reflect.TypeFor[wrapper.TableVersioner]()},
	{"wrapper.Inserter", reflect.TypeFor[wrapper.Inserter]()},
	{"scorer", reflect.TypeFor[scorer]()},
	{"io.Closer", reflect.TypeFor[io.Closer]()},
}

func facesOf(v any) map[string]bool {
	out := map[string]bool{}
	t := reflect.TypeOf(v)
	for _, f := range faces {
		if t.Implements(f.typ) {
			out[f.name] = true
		}
	}
	return out
}

func TestDecoratorsKeepFaces(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 1, Scale: 1})
	full := wrapper.NewFullAccessSource(db)
	parts, err := shard.Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.New(db.Name, parts, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := transport.NewLoopbackClient(full, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tr := newTracer()
	cases := []struct {
		name         string
		inner, outer any
	}{
		{"FullAccessSource", full, &tracedFull{in: full, tr: tr}},
		{"ShardedSource", sharded, &tracedSharded{in: sharded, tr: tr}},
		{"transport.Client", client, &tracedClient{in: client, tr: tr}},
	}
	for _, c := range cases {
		want, got := facesOf(c.inner), facesOf(c.outer)
		for _, f := range faces {
			if want[f.name] != got[f.name] {
				t.Errorf("%s: wrapped has %s=%v, decorator has %v", c.name, f.name, want[f.name], got[f.name])
			}
		}
	}
}

// TestAttributeSumsToRequest checks the wall-time split: overlapping
// sibling calls share the instants they overlap, so every layer's self
// time adds up to the request.
func TestAttributeSumsToRequest(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 1, req: 1, level: levelRoot, layer: "bench", start: ms(0), end: ms(10)},
		{id: 2, req: 1, level: levelStage, layer: "core.combine", start: ms(1), end: ms(9)},
		{id: 3, req: 1, level: levelSource, layer: "shard", exists: true, found: true, start: ms(2), end: ms(6)},
		{id: 4, req: 1, level: levelSource, layer: "shard", exists: true, start: ms(4), end: ms(8)},
		{id: 5, parent: 4, req: 1, level: levelClient, layer: "transport", shard: 0, start: ms(5), end: ms(7)},
	}
	rep := attribute(spans)
	want := map[string]float64{"bench": 2, "core.combine": 2, "shard": 4.5, "transport": 1.5}
	for layer, v := range want {
		if got := rep.Self[layer]; got != v {
			t.Errorf("self %s = %v ms, want %v", layer, got, v)
		}
	}
	if rep.RequestMs != 10 || rep.SelfSum() != 8 {
		t.Errorf("request %v ms, layers without the benchmark's glue %v ms; want 10 and 8", rep.RequestMs, rep.SelfSum())
	}
	if rep.PruneMs != 6 || rep.CombineMs != 2 || rep.Probes != 2 || rep.ProbesKept != 1 {
		t.Errorf("prune %v ms, combine %v ms, probes %d kept %d; want 6, 2, 2, 1", rep.PruneMs, rep.CombineMs, rep.Probes, rep.ProbesKept)
	}
	if rep.BackendMaxMs != 2 {
		t.Errorf("slowest backend call %v ms, want 2", rep.BackendMaxMs)
	}
}
