// Tests for remote sweeps: internal/experiments sweeps driven through the
// root package's doramd executor against a real simsvc or cluster. This is
// an external test package because simsvc and cluster import the root
// package.
package doram_test

import (
	"context"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"doram"
	"doram/internal/cluster"
	"doram/internal/experiments"
	"doram/internal/simsvc"
)

// startService serves a fresh simsvc over a real loopback listener.
func startService(t *testing.T) string {
	t.Helper()
	svc := simsvc.New(simsvc.Config{})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// quick returns a sweep small enough to run twice in a test.
func quick() experiments.Options {
	return experiments.Options{TraceLen: 1200, Seed: 42, Benchmarks: []string{"face"}}
}

// TestRemoteSweepMatchesLocal is the keystone: the same figure generated
// through a doramd endpoint and in-process must agree exactly, proving the
// spec lifting and the integer-aggregate reconstruction are lossless.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	url := startService(t)

	local := quick()
	localSum, localTab, err := experiments.Figure10(local)
	if err != nil {
		t.Fatalf("local Figure10: %v", err)
	}

	remote := quick()
	remote.Exec = doram.RemoteExec(url)
	remoteSum, remoteTab, err := experiments.Figure10(remote)
	if err != nil {
		t.Fatalf("remote Figure10: %v", err)
	}

	if !reflect.DeepEqual(localSum, remoteSum) {
		t.Errorf("remote Figure10 summary differs from local:\n  local:  %+v\n  remote: %+v", localSum, remoteSum)
	}
	if !reflect.DeepEqual(localTab, remoteTab) {
		t.Errorf("remote Figure10 table differs from local")
	}
}

// TestRemoteRejectsEventRing: a sweep run with an event ring (TraceDir)
// is the one configuration a job spec cannot carry. A remote executor
// must fail it with an error naming the ring, not simulate it
// in-process: no run completes, so no trace dump is written.
func TestRemoteRejectsEventRing(t *testing.T) {
	url := startService(t)

	o := quick()
	o.Exec = doram.RemoteExec(url)
	o.TraceDir = t.TempDir()
	if _, _, err := experiments.Figure10(o); err == nil || !strings.Contains(err.Error(), "event ring") {
		t.Fatalf("remote Figure10 with TraceDir: got %v, want an error naming the event ring", err)
	}
	entries, err := os.ReadDir(o.TraceDir)
	if err != nil {
		t.Fatalf("reading trace dir: %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("remote sweep ran in-process: %d trace dumps written", len(entries))
	}
}

// TestRemoteMetricsDir: metric dumps travel through the service, so a
// remote sweep can still write per-run dump files.
func TestRemoteMetricsDir(t *testing.T) {
	url := startService(t)

	o := quick()
	o.Exec = doram.RemoteExec(url)
	o.MetricsDir = t.TempDir()
	if _, _, err := experiments.Figure8(o, "face"); err != nil {
		t.Fatalf("remote Figure8 with MetricsDir: %v", err)
	}
	entries, err := os.ReadDir(o.MetricsDir)
	if err != nil {
		t.Fatalf("reading metrics dir: %v", err)
	}
	dumps := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			dumps++
		}
	}
	if dumps == 0 {
		t.Errorf("remote sweep wrote no metric dumps")
	}
}

// TestRemoteTraceDirRejected: span traces stay server-side, so asking a
// remote sweep for Chrome trace files must fail loudly, not silently skip.
func TestRemoteTraceDirRejected(t *testing.T) {
	o := doram.ExperimentOptions{TraceLen: 1200, Seed: 42, Benchmarks: []string{"face"}}
	o.Endpoint = "http://127.0.0.1:1" // must error before dialing
	o.TraceDir = t.TempDir()
	if _, err := doram.RunExperiment("fig10", o); err == nil || !strings.Contains(err.Error(), "TraceDir") {
		t.Errorf("Endpoint+TraceDir: got %v, want TraceDir conflict error", err)
	}
}

// TestClusterSweepMatchesLocalFigure closes the loop at figure level: the
// experiments runner pointed at a coordinator (fleet fan-out, possibly
// cache-assisted) rebuilds exactly the figure a purely local run
// produces.
func TestClusterSweepMatchesLocalFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweeps run real simulations")
	}
	front := startFleet(t, 3)

	quick := experiments.Options{TraceLen: 1200, Seed: 42, Benchmarks: []string{"face"}}
	localSum, localTab, err := experiments.Figure10(quick)
	if err != nil {
		t.Fatalf("local Figure10: %v", err)
	}
	remote := quick
	remote.Exec = doram.RemoteExec(front)
	remoteSum, remoteTab, err := experiments.Figure10(remote)
	if err != nil {
		t.Fatalf("cluster Figure10: %v", err)
	}
	if !reflect.DeepEqual(localSum, remoteSum) {
		t.Errorf("cluster Figure10 summary differs from local:\n  local:  %+v\n  cluster: %+v", localSum, remoteSum)
	}
	if !reflect.DeepEqual(localTab, remoteTab) {
		t.Errorf("cluster Figure10 table differs from local")
	}
}

// startFleet serves a cluster coordinator fronting n simsvc workers and
// returns its URL once every worker has joined.
func startFleet(t *testing.T, n int) string {
	t.Helper()
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		NodeTimeout:       300 * time.Millisecond,
		StepInterval:      20 * time.Millisecond,
		RequestTimeout:    5 * time.Second,
		HedgeAfter:        -1,
	})
	front := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		front.Close()
	})
	wg.Add(1 + n)
	go func() {
		defer wg.Done()
		coord.Run(ctx)
	}()
	for i := 0; i < n; i++ {
		worker := httptest.NewServer(simsvc.New(simsvc.Config{Workers: 2, QueueDepth: 64}).Handler())
		t.Cleanup(worker.Close)
		go func() {
			defer wg.Done()
			cluster.Join(ctx, cluster.JoinConfig{Coordinator: front.URL, Advertise: worker.URL})
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); coord.Registry().CounterValues()["cluster.nodes.alive"] != uint64(n); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", coord.Registry().CounterValues()["cluster.nodes.alive"], n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return front.URL
}
