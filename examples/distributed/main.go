// Distributed example: runs the Arbiter and three app Agents as separate
// HTTP servers on localhost (the same protocol cmd/arbiterd and cmd/agentd
// speak), registers the agents, and drives a few auction rounds — showing
// the full probe → offer → bid → allocate loop over the network.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"themis"
	"themis/daemon"
)

// serve starts an HTTP handler on a free localhost port and returns its URL.
func serve(handler http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, handler) // runs until the process exits
	}()
	return "http://" + ln.Addr().String(), nil
}

func makeApp(id string, model string, trials int, work float64) (*themis.App, error) {
	profile, err := themis.Model(model)
	if err != nil {
		return nil, err
	}
	var jobs []*themis.Job
	for i := 0; i < trials; i++ {
		j := themis.NewJob(themis.AppID(id), i, work, 4)
		j.Quality = float64(i) / float64(trials+1)
		j.Seed = int64(i + 17)
		jobs = append(jobs, j)
	}
	return themis.NewApp(themis.AppID(id), 0, profile, jobs)
}

func main() {
	topo, err := themis.Cluster(themis.ClusterTestbed)
	if err != nil {
		log.Fatal(err)
	}

	// The Arbiter daemon. The clock is accelerated so each wall-clock second
	// is one scheduling minute and leases visibly expire during the demo.
	arbServer, err := daemon.NewShardedArbiter(topo, daemon.ArbiterConfig{FairnessKnob: 0.6, LeaseDuration: 3}, 1)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	arbServer.Clock = func() float64 { return time.Since(start).Seconds() }
	arbiterURL, err := serve(arbServer.Handler())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("arbiter listening on", arbiterURL)

	// Three app Agents with different placement sensitivities and demands.
	type appSpec struct {
		id     string
		model  string
		trials int
		work   float64
	}
	specs := []appSpec{
		{"speech-team", "DeepSpeech", 6, 300},
		{"vision-team", "VGG16", 8, 400},
		{"ranking-team", "ResNet50", 4, 200},
	}
	ctx := context.Background()
	arbClient := daemon.NewArbiterClient(arbiterURL)
	for _, spec := range specs {
		app, err := makeApp(spec.id, spec.model, spec.trials, spec.work)
		if err != nil {
			log.Fatal(err)
		}
		agent, err := daemon.NewAgentServer(topo, app)
		if err != nil {
			log.Fatal(err)
		}
		url, err := serve(agent.Handler())
		if err != nil {
			log.Fatal(err)
		}
		if _, err := arbClient.Register(ctx, string(app.ID), url, app.MaxParallelism()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("agent %-13s listening on %s (demand %d GPUs, %s)\n", app.ID, url, app.MaxParallelism(), app.Profile.Name)
	}

	// Drive a few auction rounds, letting the accelerated clock advance so
	// leases expire and GPUs are re-offered.
	for round := 1; round <= 4; round++ {
		res, err := arbClient.TriggerAuction(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nauction round %d at t=%.1f min: %d GPUs offered\n", round, res.Now, res.Offered)
		for app, alloc := range res.Decisions {
			a, _ := alloc.ToAlloc()
			fmt.Printf("  %-13s won %2d GPUs: %s\n", app, a.Total(), a)
		}
		status, err := arbClient.Status(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cluster: %d/%d GPUs free, %d active leases, %d auctions so far\n",
			status.FreeGPUs, status.TotalGPUs, status.ActiveLeases, status.Auctions)
		time.Sleep(1500 * time.Millisecond)
	}
	fmt.Println("\ndone — the same flow runs across machines with cmd/arbiterd and cmd/agentd")
}
