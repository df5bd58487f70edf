package sim

import (
	"encoding/json"
	"testing"

	"mallocsim/internal/cache"
	"mallocsim/internal/workload"
)

func pagingConfig(t *testing.T, prog string, scale uint64) Config {
	t.Helper()
	p, ok := workload.ByName(prog)
	if !ok {
		t.Fatalf("no %s program", prog)
	}
	return Config{
		Program:   p,
		Allocator: "quickfit",
		Scale:     scale,
		Caches:    []cache.Config{{Size: 16 << 10}, {Size: 64 << 10}},
		PageSim:   true,
	}
}

func serverConfig(t *testing.T, allocName string, scale uint64) Config {
	t.Helper()
	scen, ok := workload.ServerByName("server")
	if !ok {
		t.Fatal("no server scenario")
	}
	return Config{
		Server:    &scen,
		Allocator: allocName,
		Scale:     scale,
		Caches:    []cache.Config{{Size: 16 << 10}, {Size: 64 << 10}},
	}
}

// TestServerRunReport: a server run must produce the sharing summary —
// nonzero true and false sharing, rows attributed to named regions and
// multiple threads — and the serialized report must carry it, while
// plain program runs keep the section absent.
func TestServerRunReport(t *testing.T) {
	res, err := Run(serverConfig(t, "bsd", 1024))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sharing
	if s == nil {
		t.Fatal("server run produced no sharing summary")
	}
	if s.TrueEvents == 0 || s.FalseEvents == 0 {
		t.Errorf("expected both true and false sharing, got true=%d false=%d", s.TrueEvents, s.FalseEvents)
	}
	if s.PingLines == 0 || len(s.Rows) == 0 {
		t.Errorf("missing attribution detail: pingLines=%d rows=%d", s.PingLines, len(s.Rows))
	}
	tids := map[uint32]bool{}
	for _, row := range s.Rows {
		if row.Region == "?" {
			t.Errorf("row %+v not resolved to a region name", row)
		}
		tids[row.Tid] = true
	}
	if len(tids) < 2 {
		t.Errorf("sharing rows span %d threads, want several", len(tids))
	}
	if res.Workload.Handoffs == 0 {
		t.Error("server run recorded no cross-thread handoffs")
	}
	rep, err := json.Marshal(res.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(rep) {
		t.Fatal("report not valid JSON")
	}
	var m map[string]any
	if err := json.Unmarshal(rep, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["sharing"]; !ok {
		t.Error("serialized report lacks the sharing section")
	}

	// Single-threaded program runs must keep the schema untouched.
	plain, err := Run(pagingConfig(t, "gawk", 256))
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(plain.Report())
	if err != nil {
		t.Fatal(err)
	}
	var pm map[string]any
	if err := json.Unmarshal(pj, &pm); err != nil {
		t.Fatal(err)
	}
	if _, ok := pm["sharing"]; ok {
		t.Error("program run report grew a sharing section")
	}
	if w, ok := pm["workload"].(map[string]any); ok {
		if _, ok := w["handoffs"]; ok {
			t.Error("program run report grew a handoffs field")
		}
	}
}
