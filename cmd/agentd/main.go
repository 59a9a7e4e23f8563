// Command agentd runs one ML app's Themis Agent as an HTTP daemon: it
// answers the Arbiter's finish-time-fairness probes, prepares bids for GPU
// offers and receives winning allocations. The app it represents is either
// loaded from a trace file (the first app in the trace) or generated
// synthetically.
//
// The listener serves /metrics (Prometheus text format) and /healthz next to
// the protocol endpoints; -debug-addr starts a second listener adding
// net/http/pprof under /debug/pprof/.
//
// Example:
//
//	agentd -listen :7201 -arbiter http://localhost:7100 -app my-app -jobs 8 -model VGG16
//	agentd -listen :7201 -arbiter http://localhost:7100 -debug-addr 127.0.0.1:7291
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"themis"
	"themis/daemon"
)

func main() {
	var (
		listen     = flag.String("listen", ":7201", "address to serve the Agent API on")
		advertise  = flag.String("advertise", "", "base URL the Arbiter should call back on (default http://localhost<listen>)")
		arbiterURL = flag.String("arbiter", "", "Arbiter base URL to register with (empty skips registration)")
		appID      = flag.String("app", "agent-app", "application ID")
		model      = flag.String("model", "ResNet50", "model family (placement-sensitivity profile): "+strings.Join(themis.ModelNames(), ", "))
		jobs       = flag.Int("jobs", 8, "number of hyperparameter trials")
		work       = flag.Float64("work", 240, "serial GPU-minutes per trial")
		gang       = flag.Int("gang", 4, "GPUs per trial")
		clusterKnd = flag.String("cluster", "testbed", "cluster topology the Arbiter schedules: 'sim' or 'testbed'")
		tracePath  = flag.String("trace", "", "load the app from a trace file instead of generating one")
		debugAddr  = flag.String("debug-addr", "", "address for the debug listener serving /metrics, /healthz and /debug/pprof/ (empty: no pprof; metrics stay on -listen)")
	)
	flag.Parse()

	topo, err := themis.Cluster(*clusterKnd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agentd:", err)
		os.Exit(1)
	}

	app, err := buildApp(*tracePath, *appID, *model, *jobs, *work, *gang)
	if err != nil {
		log.Fatalf("agentd: %v", err)
	}
	server, err := daemon.NewAgentServer(topo, app)
	if err != nil {
		log.Fatalf("agentd: %v", err)
	}

	callback := *advertise
	if callback == "" {
		callback = "http://localhost" + *listen
	}
	if *arbiterURL != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		resp, err := daemon.NewArbiterClient(*arbiterURL).Register(ctx, string(app.ID), callback, app.MaxParallelism())
		if err != nil {
			log.Fatalf("agentd: registering with %s: %v", *arbiterURL, err)
		}
		log.Printf("agentd: registered %s with arbiter (lease %.0f min)", app.ID, resp.LeaseMin)
	}

	if *debugAddr != "" {
		go func() {
			log.Printf("agentd: debug listener (pprof, /metrics) on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, daemon.NewDebugMux(nil)); err != nil {
				log.Printf("agentd: debug listener: %v", err)
			}
		}()
	}

	log.Printf("agentd: serving app %s (%d trials, %s, demand %d GPUs) on %s",
		app.ID, len(app.Jobs), app.Profile.Name, app.MaxParallelism(), *listen)
	if err := http.ListenAndServe(*listen, server.Handler()); err != nil {
		log.Fatalf("agentd: %v", err)
	}
}

// buildApp loads the first app from a trace or synthesises one.
func buildApp(tracePath, id, model string, jobs int, work float64, gang int) (*themis.App, error) {
	if tracePath != "" {
		tr, err := themis.LoadTrace(tracePath)
		if err != nil {
			return nil, err
		}
		apps, err := tr.ToApps()
		if err != nil {
			return nil, err
		}
		if len(apps) == 0 {
			return nil, fmt.Errorf("trace %s contains no apps", tracePath)
		}
		return apps[0], nil
	}
	profile, err := themis.Model(model)
	if err != nil {
		return nil, err
	}
	var trials []*themis.Job
	for i := 0; i < jobs; i++ {
		j := themis.NewJob(themis.AppID(id), i, work, gang)
		j.Quality = float64(i) / float64(jobs+1)
		j.Seed = int64(i + 1)
		trials = append(trials, j)
	}
	return themis.NewApp(themis.AppID(id), 0, profile, trials)
}
