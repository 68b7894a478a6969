package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"fairsqg/internal/cluster"
	"fairsqg/internal/graph"
)

// clusterJobs is how many par jobs the traced serve-jobs run sends
// through the coordinator.
const clusterJobs = 12

// clusterSection records the first numbers for the distributed path: a
// few par jobs through an in-process coordinator and two workers on
// loopback, each beside the same request run by the local ParQGen. It is
// part of the traced run only and moves no end-to-end metric.
func clusterSection(tr *tracer, lt *layerTrace, g *graph.Graph, ops []opSpec) {
	span := tr.begin(0, -1, 0, "cluster")
	defer tr.end(span)

	var servers []*http.Server
	var served []chan error
	var addrs []string
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i, hs := range servers {
			hs.Shutdown(ctx)
			<-served[i]
		}
	}
	defer stop()
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return
		}
		hs := &http.Server{Handler: cluster.NewWorker(cluster.WorkerOptions{}).Handler()}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(ln) }()
		servers, served, addrs = append(servers, hs), append(served, done), append(addrs, ln.Addr().String())
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{Workers: addrs})
	if err != nil {
		return
	}
	defer coord.Close()

	var ratios []float64
	jobs := 0
	for i := range ops {
		if ops[i].Alg != "rf" || jobs == clusterJobs {
			continue
		}
		jobs++
		spec := ops[i]
		spec.Alg = "par"
		id := tr.begin(span, -1, 0, "cluster.job")
		t0 := time.Now()
		_, err := coord.RunJob(context.Background(), cluster.JobRequest{
			Graph:   serveGraph,
			G:       g,
			Payload: spec.payload(),
		})
		dist := time.Since(t0)
		tr.end(id)
		if err != nil {
			continue
		}
		lt.sample("cluster.par_job", dist)
		t0 = time.Now()
		if _, err := runGeneration(g, &spec, nil, nil); err == nil {
			ratios = append(ratios, dist.Seconds()/time.Since(t0).Seconds())
		}
	}
	lt.set("cluster.vs_local_ratio", median(ratios))
	doc := coord.MetricsSnapshot()
	lt.set("cluster.slab_attempts", nestedNumber(doc, "slabsDispatched"))
	lt.set("cluster.slabs_retried", nestedNumber(doc, "slabsRetried"))
}
