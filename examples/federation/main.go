// Federation: two grid servers glued into one tier. Both members wrap
// their result stores in a grid.ShardedStore with replication 2, so
// every result is banked on both of them; member B runs the only
// workers. A Runner pointed at BOTH members submits the batch to A (the
// first listed; B is its failover), and the jobs on worker-less A are
// carried to B by work stealing: B's steal loop sees its own queue
// empty, asks A for surplus, runs the tasks through its local pool, and
// relays the results back under A's lease discipline. The rerun then
// hits the shared store no matter which member answers. This is the
// in-process version of
//
//	helperd serve -addr :8321 -self 127.0.0.1:8321 -peers 127.0.0.1:8322 -store-shard 2 -store-dir cache/
//	helperd serve -addr :8322 -self 127.0.0.1:8322 -peers 127.0.0.1:8321 -store-shard 2
//	helperd work  -server :8322
//	sweep -study ladder -grid 127.0.0.1:8321,127.0.0.1:8322
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"time"

	"repro"
	"repro/internal/grid"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Reserve both addresses before building anything: each member's URL
	// is the other's peer seed, and its own advertised self.
	lnA := listen()
	lnB := listen()
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()

	// Member A: one shard of the shared store (over an in-memory local
	// store), no workers. The deferred order matters: each Federation
	// closes before its HTTP server so in-flight loopback batches can
	// finish.
	shardA := grid.NewShardedStore(grid.NewStore(), urlA, grid.WithShardReplication(2))
	defer shardA.Close()
	srvA := grid.NewServer(grid.WithStorage(shardA))
	defer srvA.Close()
	fedA := grid.NewFederation(srvA, urlA, []string{urlB},
		grid.WithStealInterval(50*time.Millisecond))
	shardA.SetMembership(fedA.Peers)
	hsA := &http.Server{Handler: fedA}
	go hsA.Serve(lnA)
	defer hsA.Close()
	defer fedA.Close()

	// Member B: the other shard; its workers are the tier's only
	// execution capacity.
	shardB := grid.NewShardedStore(grid.NewStore(), urlB, grid.WithShardReplication(2))
	defer shardB.Close()
	srvB := grid.NewServer(grid.WithStorage(shardB))
	defer srvB.Close()
	fedB := grid.NewFederation(srvB, urlB, []string{urlA},
		grid.WithStealInterval(50*time.Millisecond))
	shardB.SetMembership(fedB.Peers)
	hsB := &http.Server{Handler: fedB}
	go hsB.Serve(lnB)
	defer hsB.Close()
	defer fedB.Close()

	for i := 0; i < 2; i++ {
		w := &grid.Worker{
			Server:   urlB,
			Name:     fmt.Sprintf("worker%d", i),
			Exec:     repro.NewRunner().JobExec(),
			Parallel: 2,
		}
		go w.Run(ctx)
	}

	// The Runner sees the whole federation: the batch goes to A, and if
	// A stopped answering its unfinished jobs would fail over to B.
	runner := repro.NewRunner(repro.WithGrid(urlA + "," + urlB))

	const uops = 40_000
	var jobs []repro.Job
	for _, name := range []string{"gcc", "gzip", "crafty"} {
		w, err := repro.WorkloadByName(name)
		if err != nil {
			panic(err)
		}
		jobs = append(jobs,
			repro.Job{Policy: repro.PolicyBaseline(), Workload: w, N: uops},
			repro.Job{Policy: repro.PolicyFull(), Workload: w, N: uops},
		)
	}

	fmt.Printf("federation: %s (no workers) + %s (2 workers), %d jobs\n\n", urlA, urlB, len(jobs))
	results, err := runner.RunAll(ctx, jobs)
	if err != nil {
		panic(err)
	}
	for i := 0; i < len(jobs); i += 2 {
		base, full := results[i], results[i+1]
		fmt.Printf("  %-8s %s speedup %+.1f%%\n",
			jobs[i].Workload.Name, full.Policy, 100*repro.SpeedupOf(full, base))
	}

	ma, mb := srvA.Metrics(), srvB.Metrics()
	fmt.Printf("\nwork stealing: A granted %d tasks to peers, B stole %d (A has no workers)\n",
		ma.StealsOut, mb.StealsIn)

	// Round two: the shared store answers for both members, so it does
	// not matter which member the batch lands on.
	again, err := runner.RunAll(ctx, jobs)
	if err != nil {
		panic(err)
	}
	gm, err := runner.GridMetrics(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rerun bit-identical: %v\n", reflect.DeepEqual(results, again))
	fmt.Printf("federation metrics: %d cache hits, %d misses, %d peers, affinity %d/%d\n",
		gm.CacheHits, gm.CacheMisses, gm.Peers, gm.AffinityHits, gm.AffinityHits+gm.AffinityMisses)
}

func listen() net.Listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	return ln
}
