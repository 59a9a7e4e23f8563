package experiments

import (
	"testing"

	"themis/internal/race"
)

// TestShardedLoadStudySeed is the tier-1 seed of the load study: small enough
// to run in CI, large enough that the sharded deployment's advantage (auction
// cost superlinear in participants) is already measurable. The full-scale
// acceptance run lives in TestShardedLoadStudyFullScale.
func TestShardedLoadStudySeed(t *testing.T) {
	res, err := ShardedLoadStudy(ShardedLoadOptions{
		Agents:          2000,
		Shards:          4,
		Machines:        16,
		MachinesPerRack: 4,
		DemandingApps:   50,
		Rounds:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed: %s", res.Summary())

	total := 16 * 8
	if res.SingleGranted != total {
		t.Errorf("single granted %d, want full capacity %d (full subscription)", res.SingleGranted, total)
	}
	if res.ShardedGranted != res.SingleGranted {
		t.Errorf("work conservation: sharded granted %d, single %d", res.ShardedGranted, res.SingleGranted)
	}
	if res.ParityL1 != 0 {
		t.Errorf("per-app divergence %d GPUs at full subscription, want exact parity", res.ParityL1)
	}
	if res.Speedup < 1 {
		t.Errorf("sharded deployment slower than single (%.2fx)", res.Speedup)
	}
}

// TestShardedLoadStudyFullScale is the acceptance run: 100k simulated agents
// through 8 shards must grant the full capacity, end in the identical
// allocation as the single arbiter, and be no slower than it. No larger
// wall-clock ratio is asserted: how much faster sharding is depends on the
// core count and on what a single auction costs (1 + winners searches), and
// a ratio pinned here would pin that cost, waste included; both throughputs
// are logged instead. Skipped under -short and -race (a 100k-agent auction
// under the race detector takes minutes and the seed test covers the same
// paths); the plain tier-1 lane runs it.
func TestShardedLoadStudyFullScale(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("full-scale load study skipped under -short / -race")
	}
	res, err := ShardedLoadStudy(ShardedLoadOptions{}) // defaults: 100k agents, 8 shards
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full: %s (throughput %.0f vs %.0f agent-rounds/s, worst round %.2fs vs %.2fs)",
		res.Summary(),
		res.SingleThroughput, res.ShardedThroughput,
		res.MaxRoundSecondsSingle, res.MaxRoundSecondsSharded)

	if res.SingleGranted != 160*8 {
		t.Errorf("single granted %d, want full capacity %d (full subscription)", res.SingleGranted, 160*8)
	}
	if res.ShardedGranted != res.SingleGranted {
		t.Errorf("work conservation: sharded granted %d, single %d", res.ShardedGranted, res.SingleGranted)
	}
	if res.ParityL1 != 0 {
		t.Errorf("per-app divergence %d GPUs at full subscription, want exact parity", res.ParityL1)
	}
	if res.Speedup < 1 {
		t.Errorf("sharded deployment slower than single (%.2fx)", res.Speedup)
	}
}
