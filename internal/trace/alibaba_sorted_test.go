package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sortedAlibabaCSV builds a deterministic Alibaba-style CSV whose data rows
// are sorted by start time, with jobs interleaved (a job's tasks are spread
// across the file) and a sprinkling of filtered and malformed rows.
func sortedAlibabaCSV(t *testing.T, seed int64, jobs, rowsPerJob int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type row struct {
		job, task string
		start     float64
		dur       float64
		status    string
		gpu       int
	}
	var rows []row
	for j := 0; j < jobs; j++ {
		base := rng.Float64() * 100000
		for i := 0; i < rowsPerJob; i++ {
			status := "Terminated"
			if rng.Float64() < 0.15 {
				status = "Failed" // dropped by the importer
			}
			rows = append(rows, row{
				job:    fmt.Sprintf("job-%03d", j),
				task:   fmt.Sprintf("t%d", i),
				start:  base + rng.Float64()*5000,
				dur:    60 + rng.Float64()*4000,
				status: status,
				gpu:    100 * (1 + rng.Intn(4)),
			})
		}
	}
	// Sort every data row by start time, as archived cluster dumps are.
	for i := 1; i < len(rows); i++ {
		for k := i; k > 0 && rows[k].start < rows[k-1].start; k-- {
			rows[k], rows[k-1] = rows[k-1], rows[k]
		}
	}
	var b strings.Builder
	b.WriteString("job_name,task_name,inst_num,status,start_time,end_time,plan_gpu\n")
	for i, r := range rows {
		fmt.Fprintf(&b, "%s,%s,1,%s,%.3f,%.3f,%d\n", r.job, r.task, r.status, r.start, r.start+r.dur, r.gpu)
		if i%17 == 0 {
			b.WriteString("malformed,row\n") // short row: the importer skips it
		}
	}
	return b.String()
}

// On sorted input, across cap sizes, the capped import must keep exactly the
// uncapped import's leading apps by (submit, ID), tasks and all.
func TestAlibabaSortedCrossCheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		csv := sortedAlibabaCSV(t, seed, 30, 6)
		full, err := ImportAlibaba(strings.NewReader(csv), ImportOptions{})
		if err != nil {
			t.Fatalf("seed %d uncapped: %v", seed, err)
		}
		for _, maxApps := range []int{0, 1, 3, 10, 29, 30, 100} {
			t.Run(fmt.Sprintf("seed%d-cap%d", seed, maxApps), func(t *testing.T) {
				capped, err := ImportAlibaba(strings.NewReader(csv), ImportOptions{MaxApps: maxApps})
				if err != nil {
					t.Fatal(err)
				}
				want := full.Apps
				if maxApps > 0 && maxApps < len(want) {
					want = want[:maxApps]
				}
				if !reflect.DeepEqual(capped.Apps, want) {
					t.Fatalf("cap %d kept %+v, want the uncapped head %+v", maxApps, capped.Apps, want)
				}
			})
		}
	}
}

// Jobs tied on submission time are kept by ID order, and a kept job keeps
// every one of its task rows, including those after a dropped job's rows.
// All four jobs submit at 100, so at cap 1 the survivor is alpha with both
// its tasks.
func TestAlibabaSortedTies(t *testing.T) {
	csv := "job_name,task_name,inst_num,status,start_time,end_time,plan_gpu\n" +
		"zeta,t0,1,Terminated,100,700,100\n" +
		"beta,t0,1,Terminated,100,800,100\n" +
		"alpha,t0,1,Terminated,100,900,100\n" +
		"gamma,t0,1,Terminated,100,950,100\n" +
		"zeta,t1,1,Terminated,160,750,100\n" +
		"gamma,t1,1,Terminated,200,900,100\n" +
		"alpha,t1,1,Terminated,260,980,100\n"
	want := []string{"alpha", "beta", "gamma", "zeta"}
	tasks := map[string]int{"alpha": 2, "beta": 1, "gamma": 2, "zeta": 2}
	for _, maxApps := range []int{0, 1, 2, 3} {
		tr, err := ImportAlibaba(strings.NewReader(csv), ImportOptions{MaxApps: maxApps})
		if err != nil {
			t.Fatalf("cap %d: %v", maxApps, err)
		}
		kept := want
		if maxApps > 0 {
			kept = want[:maxApps]
		}
		if len(tr.Apps) != len(kept) {
			t.Fatalf("cap %d kept %d apps, want %v", maxApps, len(tr.Apps), kept)
		}
		for i, app := range tr.Apps {
			if app.ID != kept[i] || len(app.Jobs) != tasks[app.ID] {
				t.Fatalf("cap %d app %d = %s with %d jobs, want %s with %d",
					maxApps, i, app.ID, len(app.Jobs), kept[i], tasks[kept[i]])
			}
		}
	}
}

// The import reports progress on sorted input, and its final snapshot
// counts the apps kept under the cap.
func TestAlibabaSortedProgress(t *testing.T) {
	csv := sortedAlibabaCSV(t, 4, 40, 4)
	var last ImportProgress
	calls := 0
	_, err := ImportAlibaba(strings.NewReader(csv), ImportOptions{
		MaxApps:       5,
		ProgressEvery: 10,
		Progress: func(p ImportProgress) {
			calls++
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || !last.Done {
		t.Fatalf("progress not reported (calls %d, last %+v)", calls, last)
	}
	if last.Kept != 5 {
		t.Errorf("final Kept = %d, want 5", last.Kept)
	}
}
