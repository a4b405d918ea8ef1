package main

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	alisa "repro"
	"repro/internal/workload"
)

func TestPoissonTraceDeterministicInSeed(t *testing.T) {
	a, err := workload.NewPoissonTrace(500, serveScaleRate, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.NewPoissonTrace(500, serveScaleRate, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || traceDigest(a) != traceDigest(b) {
		t.Fatal("the same seed generated different traces")
	}
	c, err := workload.NewPoissonTrace(500, serveScaleRate, 8)
	if err != nil {
		t.Fatal(err)
	}
	if traceDigest(a) == traceDigest(c) {
		t.Fatal("different seeds generated the same trace")
	}
}

func TestFleetTraceDeterministicAndOrdered(t *testing.T) {
	a, err := fleetTraceSized(5, 12, 8, 96)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleetTraceSized(5, 12, 8, 96)
	if err != nil {
		t.Fatal(err)
	}
	if traceDigest(a) != traceDigest(b) {
		t.Fatal("the same seed generated different fleet traces")
	}
	if err := a.Validate(fleetMaxSeq); err != nil {
		t.Fatalf("merged trace is not a valid arrival-ordered trace: %v", err)
	}
	for i, r := range a {
		if r.ID != i || len(r.Tokens) != r.Input {
			t.Fatalf("request %d: id %d, %d tokens for input %d", i, r.ID, len(r.Tokens), r.Input)
		}
	}
}

// An idle replica's jump from its clock a to the next arrival b, computed
// as a + (b − a), must land on b for every clock a replica can idle at
// once the arrivals are delayed. Without the delay some jumps land short.
func TestDelayArrivalsMakesIdleJumpsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shortJumps := func(tr alisa.TraceWorkload, lo float64) int {
		short := 0
		for i := 0; i < 100_000; i++ {
			b := tr[1+rng.Intn(len(tr)-1)].Arrival
			a := lo + rng.Float64()*(b-lo)
			if a+(b-a) != b {
				short++
			}
		}
		return short
	}
	tr, err := workload.NewPoissonTrace(2000, serveScaleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	if shortJumps(tr, 0) == 0 {
		t.Fatal("no jump landed short on the undelayed trace; the test does not exercise the rounding")
	}
	delay := delayArrivals(tr)
	if delay <= 0 || tr[0].Arrival < delay || tr[len(tr)-1].Arrival != 2*delay {
		t.Fatalf("delay %v moved the arrivals to [%v, %v]", delay, tr[0].Arrival, tr[len(tr)-1].Arrival)
	}
	if n := shortJumps(tr, delay); n != 0 {
		t.Fatalf("%d jumps landed short after the delay", n)
	}
	if got := spanGoodput(10, 30, 20); got != 30 {
		t.Errorf("goodput 10 over a makespan of 30 delayed by 20 = %v over the span, want 30", got)
	}
}

// Seed 100's fleet trace once made a replica's idle jump land short of an
// arrival, and the fleet reported a request unservable.
func TestPrefixFleetServesSeed100(t *testing.T) {
	inst, err := setupPrefixFleet(opts{seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	out, err := inst.rep(nil, nil)
	if err != nil || out.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", out.failed, out.items, err)
	}
}

// Pushing a trace incrementally ahead of the simulated clock must serve
// it exactly as a whole-trace replay does.
func TestIncrementalPushMatchesServe(t *testing.T) {
	eng, err := serveScaleEngine()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.NewPoissonTrace(500, serveScaleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	delayArrivals(tr) // as the workload does: the session starts idle far before the first arrival
	want, err := eng.Serve(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Open(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := feedSession(sess, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.late != 0 {
		t.Errorf("%d requests were pushed after the clock reached their arrival", got.late)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Errorf("incremental push diverged from Serve:\n got %+v\nwant %+v", got.res, want)
	}
}

// Pushing a fleet trace as the frontier reaches each arrival must route
// and serve it exactly as the fleet's own replay does.
func TestFeedClusterMatchesServeCluster(t *testing.T) {
	eng, err := fleetEngine()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := fleetTraceSized(3, 12, 8, 96)
	if err != nil {
		t.Fatal(err)
	}
	delayArrivals(tr)
	spec := alisa.ClusterSpec{Replicas: 4, Router: fleetRouter}
	want, err := eng.ServeCluster(context.Background(), spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := eng.OpenCluster(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := feedCluster(fleet, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("fleet feed diverged from ServeCluster:\n got %s\nwant %s", got.Fingerprint(), want.Fingerprint())
	}
}
