package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if reg.Counter("x") != c {
		t.Fatal("same name must return the same counter")
	}
	g := reg.Gauge("y")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	if reg.Gauge("y") != g {
		t.Fatal("same name must return the same gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-106) > 1e-12 {
		t.Fatalf("sum = %g, want 106", h.Sum())
	}
	snap := reg.Snapshot().Histograms["h"]
	// 0.5 and 1 land in the <=1 bucket, 1.5 in <=2, 3 in <=4, 100 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, snap.Buckets[i], w, snap.Buckets)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
	g := reg.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read zero")
	}
	h := reg.Histogram("h", []float64{1})
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read zero")
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}

	var tr *Tracer
	tr.Event("e", F("a", 1))
	tr.Span("s")()
	tr.SnapshotRegistry("final", reg)
	if tr.Scope("sub") != nil {
		t.Fatal("nil tracer scope must stay nil")
	}
	if tr.Err() != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("c").Inc()
				reg.Histogram("h", []float64{0.5}).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	h := reg.Histogram("h", nil)
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Fatalf("histogram count=%d sum=%g, want 8000/8000", h.Count(), h.Sum())
	}
}

func TestSnapshotSummaryDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(7)
	reg.Counter("a.count").Add(3)
	reg.Gauge("c.level").Set(1.5)
	reg.Histogram("d.hist", []float64{1}).Observe(2)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("summary has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for i, prefix := range []string{"a.count", "b.count", "c.level", "d.hist"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	var buf2 bytes.Buffer
	if err := reg.Snapshot().WriteSummary(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("summary must be deterministic")
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Event("alpha", F("x", 1), F("y", 2))
	tr.Scope("ga").Event("beta")
	tr.Scope("ga").Scope("gen").Span("run", F("n", 3))()
	reg := NewRegistry()
	reg.Counter("done").Inc()
	tr.SnapshotRegistry("final", reg)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("trace has %d lines, want 4", len(lines))
	}
	var recs []Record
	for _, l := range lines {
		var r Record
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", l, err)
		}
		recs = append(recs, r)
	}
	if recs[0].Name != "alpha" || recs[0].Kind != "event" || recs[0].Attrs["y"] != 2 {
		t.Fatalf("bad event record: %+v", recs[0])
	}
	if recs[1].Scope != "ga" {
		t.Fatalf("scope = %q, want ga", recs[1].Scope)
	}
	if recs[2].Scope != "ga/gen" || recs[2].Kind != "span" || recs[2].DurNS < 0 {
		t.Fatalf("bad span record: %+v", recs[2])
	}
	if recs[3].Kind != "snapshot" || recs[3].Registry == nil || recs[3].Registry.Counters["done"] != 1 {
		t.Fatalf("bad snapshot record: %+v", recs[3])
	}
}

// TestTracerConcurrentWriters emits from concurrent scoped writers into
// one JSONL sink; under -race this pins the tracer's synchronization, and
// every record must come out as one whole line.
func TestTracerConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := tr.Scope(fmt.Sprintf("w%d", w))
			for i := 0; i < 500; i++ {
				sc.Event("tick", F("i", float64(i)))
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2000 {
		t.Fatalf("trace has %d lines, want 2000", len(lines))
	}
	next := map[string]float64{}
	for _, l := range lines {
		var r Record
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", l, err)
		}
		// Each writer's records keep their order.
		if r.Attrs["i"] != next[r.Scope] {
			t.Fatalf("scope %s: record %g, want %g", r.Scope, r.Attrs["i"], next[r.Scope])
		}
		next[r.Scope]++
	}
	if len(next) != 4 {
		t.Fatalf("records from %d scopes, want 4", len(next))
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served").Add(9)
	addr, stop, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/debug/obs"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["served"] != 9 {
		t.Fatalf("snapshot counter = %d, want 9", snap.Counters["served"])
	}
	if !bytes.Contains(get("/debug/vars"), []byte("robsched.obs")) {
		t.Fatal("expvar export missing robsched.obs")
	}
	if !bytes.Contains(get("/debug/pprof/"), []byte("goroutine")) {
		t.Fatal("pprof index not served")
	}
}
