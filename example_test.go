package alisa_test

import (
	"context"
	"fmt"
	"log"

	alisa "repro"
)

// ExampleEngine_session drives the streaming serving surface: open a
// session, push requests onto the simulated timeline (a burst now, one
// arriving later), let the loop drain, and read both the online window
// and the final result. Serve is this same loop seeded with a whole
// trace; a session lets traffic arrive while the simulation runs.
func ExampleEngine_session() {
	eng, err := alisa.New("opt-6.7b", alisa.WithKVSparsity(0.8), alisa.WithKVBits(8))
	if err != nil {
		log.Fatal(err)
	}
	s, err := eng.Open(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Push(alisa.Request{ID: i, Arrival: 0, Input: 64, Output: 32}); err != nil {
			log.Fatal(err)
		}
	}
	// A request pushed with a future arrival: the session jumps its
	// clock to it once the burst drains.
	if err := s.Push(alisa.Request{ID: 4, Arrival: 60, Input: 64, Output: 32}); err != nil {
		log.Fatal(err)
	}
	res, err := s.Close() // graceful drain: everything pushed completes
	if err != nil {
		log.Fatal(err)
	}
	snap := s.Snapshot()
	fmt.Printf("completed %d requests, window holds %d, SLO attainment %.0f%%\n",
		len(res.Requests), snap.Count, res.SLOAttainment*100)
	// Output: completed 5 requests, window holds 5, SLO attainment 100%
}
