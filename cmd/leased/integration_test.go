package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/transport"
)

// TestDebugEndpointsUnderWorkload starts a fully wired daemon (TCP lease
// server + debug HTTP server), drives it with a scripted client workload,
// and asserts that the scraped /metrics and /debug/vars reflect the
// protocol activity: lease grants, invalidations, write-ack waits, and the
// wire accounting of the metrics.Recorder.
func TestDebugEndpointsUnderWorkload(t *testing.T) {
	in, err := start(options{
		addr:       "127.0.0.1:0",
		volume:     "itest",
		nObjects:   8,
		objLease:   time.Minute,
		volLease:   10 * time.Second,
		mode:       "eager",
		msgTimeout: 200 * time.Millisecond,
		debugAddr:  "127.0.0.1:0",
		traceLen:   128,
		slowWrite:  time.Nanosecond, // every blocking write counts as slow
		cost:       true,            // the flag's default: the transport tap
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// Scripted workload over real TCP: two readers cache an object, then a
	// writer updates it, forcing an invalidate/ack round.
	readers := make([]*client.Client, 2)
	for i := range readers {
		cl, err := client.Dial(transport.TCP{}, in.srv.Addr(), client.Config{
			ID: core.ClientID(fmt.Sprintf("reader-%d", i)),
		})
		if err != nil {
			t.Fatalf("dial reader %d: %v", i, err)
		}
		defer cl.Close()
		readers[i] = cl
		for j := 0; j < 4; j++ {
			if _, err := cl.Read("itest", "obj-1"); err != nil {
				t.Fatalf("reader %d read %d: %v", i, j, err)
			}
		}
	}
	writer, err := client.Dial(transport.TCP{}, in.srv.Addr(), client.Config{ID: "writer"})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if _, _, err := writer.Write("obj-1", []byte("new contents")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Re-read after the invalidation so a server round trip is recorded.
	if _, err := readers[0].Read("itest", "obj-1"); err != nil {
		t.Fatalf("post-write read: %v", err)
	}

	base := "http://" + in.debug.Addr()

	prom := httpGet(t, base+"/metrics")
	wantSeries := []string{
		`lease_obj_grants_total{server="itest"}`,
		`lease_vol_grants_total{server="itest"}`,
		`lease_invalidations_sent_total{server="itest"}`,
		`lease_invalidation_acks_total{server="itest"}`,
		`lease_server_writes_total{server="itest"}`,
		`lease_write_ack_wait_seconds_count{server="itest"`,
		`lease_wire_messages_total`,
		`lease_cost_frames_total{node="itest",kind="ReqObjLease",dir="recv"}`,
	}
	for _, s := range wantSeries {
		if !strings.Contains(prom, s) {
			t.Errorf("/metrics missing series %q", s)
		}
	}

	vars := map[string]any{}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	atLeast := func(name string, min float64) {
		t.Helper()
		v, ok := vars[name].(float64)
		if !ok {
			t.Errorf("/debug/vars missing %q", name)
			return
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", name, v, min)
		}
	}
	// Two readers fetched obj-1 plus one post-write refetch: >= 3 object
	// grants. Each reader took a volume lease; the writer's invalidation
	// round reached both readers and both acked.
	atLeast(`lease_obj_grants_total{server="itest"}`, 3)
	atLeast(`lease_vol_grants_total{server="itest"}`, 2)
	atLeast(`lease_invalidations_sent_total{server="itest"}`, 2)
	atLeast(`lease_invalidation_acks_total{server="itest"}`, 2)
	atLeast(`lease_server_writes_total{server="itest"}`, 1)
	atLeast(`lease_slow_writes_total{server="itest"}`, 1)
	atLeast(`lease_server_connections{server="itest"}`, 3)

	// The registry's view of the Recorder must agree with the Recorder
	// itself (no drift between the two accounting paths).
	totals := in.rec.Totals()
	if got := vars["lease_wire_messages_total"].(float64); got != float64(totals.Messages) {
		t.Errorf("lease_wire_messages_total = %v, Recorder says %d", got, totals.Messages)
	}
	if totals.Messages == 0 {
		t.Error("Recorder observed no messages")
	}

	// Ack-wait histogram recorded the write's wait.
	hist, ok := vars[`lease_write_ack_wait_seconds{server="itest"}`].(map[string]any)
	if !ok {
		t.Fatalf("missing ack-wait histogram in /debug/vars")
	}
	if c := hist["count"].(float64); c < 1 {
		t.Errorf("ack-wait histogram count = %v, want >= 1", c)
	}

	// Protocol events made it to the ring.
	events := httpGet(t, base+"/debug/events")
	for _, ev := range []string{"obj-lease-grant", "vol-lease-grant", "inval-sent", "inval-acked", "write-unblocked", "msg-sent", "msg-recv"} {
		if !strings.Contains(events, ev) {
			t.Errorf("/debug/events missing %q event", ev)
		}
	}

	// pprof index answers.
	if body := httpGet(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(body)
}

// TestTraceEndpointsUnderWorkload enables span tracing and the load
// timeline, drives a traced write over TCP, and checks the two new debug
// endpoints: /debug/spans must return the write's causal chain (client
// span -> server root -> serialize/fanout/ack-wait children), /debug/load
// the post-write message burst.
func TestTraceEndpointsUnderWorkload(t *testing.T) {
	in, err := start(options{
		addr:       "127.0.0.1:0",
		volume:     "ttest",
		nObjects:   4,
		objLease:   time.Minute,
		volLease:   10 * time.Second,
		mode:       "eager",
		msgTimeout: 200 * time.Millisecond,
		debugAddr:  "127.0.0.1:0",
		traceLen:   128,
		spans:      256,
		spanSample: 1,
		loadWindow: 60,
		cost:       true, // the tap emits the msg events /debug/load counts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	reader, err := client.Dial(transport.TCP{}, in.srv.Addr(), client.Config{
		ID: "t-reader", Obs: nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if _, err := reader.Read("ttest", "obj-1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.srv.Write("obj-1", []byte("traced contents")); err != nil {
		t.Fatal(err)
	}

	base := "http://" + in.debug.Addr()

	// /debug/spans returns JSON lines; the write must appear as a root
	// "write" span with serialize/fanout/ack-wait children.
	body := httpGet(t, base+"/debug/spans")
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var span struct {
			Kind   string `json:"kind"`
			Trace  uint64 `json:"trace"`
			Parent uint64 `json:"parent,omitempty"`
		}
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		kinds[span.Kind]++
	}
	for _, k := range []string{"write", "serialize-wait", "fanout", "ack-wait"} {
		if kinds[k] == 0 {
			t.Errorf("/debug/spans missing %q span (got %v)", k, kinds)
		}
	}
	// The ?type= filter narrows to one kind.
	filtered := httpGet(t, base+"/debug/spans?type=write")
	for _, line := range strings.Split(strings.TrimSpace(filtered), "\n") {
		if line != "" && !strings.Contains(line, `"kind":"write"`) {
			t.Errorf("?type=write returned %q", line)
		}
	}

	// /debug/load shows the burst: at least one busy second, messages of
	// several wire kinds, and the committed write.
	var dump struct {
		Node    string `json:"node"`
		Seconds []struct {
			Msgs   int64            `json:"msgs"`
			ByKind map[string]int64 `json:"by_kind"`
			Writes int64            `json:"writes"`
		} `json:"seconds"`
		Burst struct {
			Peak int64 `json:"peak_mps"`
		} `json:"burst"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/load")), &dump); err != nil {
		t.Fatalf("/debug/load is not JSON: %v", err)
	}
	if dump.Node != "ttest" || len(dump.Seconds) == 0 || dump.Burst.Peak == 0 {
		t.Errorf("/debug/load dump = %+v", dump)
	}
	var writes, msgs, kindMsgs int64
	for _, s := range dump.Seconds {
		writes += s.Writes
		msgs += s.Msgs
		for _, n := range s.ByKind {
			kindMsgs += n
		}
	}
	if writes < 1 {
		t.Errorf("load timeline recorded %d writes, want >= 1", writes)
	}
	// The tap's msg events feed msgs and by_kind, and by_kind partitions
	// msgs.
	if msgs == 0 || kindMsgs != msgs {
		t.Errorf("load timeline msgs = %d, by_kind sums to %d; want equal and nonzero", msgs, kindMsgs)
	}

	// The lease_load_* gauges ride the normal metrics endpoints.
	vars := map[string]any{}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	if v, ok := vars[`lease_load_peak_mps{node="ttest"}`].(float64); !ok || v < 1 {
		t.Errorf(`lease_load_peak_mps{node="ttest"} = %v`, vars[`lease_load_peak_mps{node="ttest"}`])
	}
}
