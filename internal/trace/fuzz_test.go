package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceDecode asserts the native decoder's contract on arbitrary bytes:
// it never panics, and any input it accepts survives an encode→decode
// round-trip unchanged (the on-disk format is self-describing and lossless).
func FuzzTraceDecode(f *testing.F) {
	var seedBuf bytes.Buffer
	cfg := func() Trace {
		apps := []AppSpec{
			{ID: "a", SubmitTime: 0, Model: "VGG16", Jobs: []JobSpec{{TotalWork: 40, GangSize: 4, Quality: 0.5, Seed: 9}}},
			{ID: "b", SubmitTime: 12.5, Jobs: []JobSpec{{TotalWork: 1, GangSize: 1}, {TotalWork: 2.25, GangSize: 2, MaxParallelism: 8}}},
		}
		return Trace{Version: FormatVersion, Name: "seed", Apps: apps}
	}()
	if err := cfg.Write(&seedBuf); err != nil {
		f.Fatal(err)
	}
	f.Add(seedBuf.Bytes())
	f.Add([]byte(`{"version":1,"apps":[]}`))
	f.Add([]byte(`{"version":2,"apps":[{"id":"x"}]}`))
	f.Add([]byte(`{"version":1,"apps":[{"id":"a","jobs":[{"total_work":1,"gang_size":1}]},{"id":"a","jobs":[{"total_work":1,"gang_size":1}]}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":1,"apps":[{"id":"a","jobs":[{"total_work":-1,"gang_size":0}]}]}`))
	// v2 placement-block terrain: valid blocks, blocks smuggled into v1,
	// hostile constraint values and unknown profiles.
	f.Add([]byte(`{"version":2,"apps":[{"id":"a","placement":{"profile":"VGG16","min_gpus_per_machine":2,"max_machines":1},"jobs":[{"total_work":1,"gang_size":4}]}]}`))
	f.Add([]byte(`{"version":2,"apps":[{"id":"a","placement":{},"jobs":[{"total_work":1,"gang_size":1,"max_machines":3}]}]}`))
	f.Add([]byte(`{"version":1,"apps":[{"id":"a","placement":{"max_machines":1},"jobs":[{"total_work":1,"gang_size":1}]}]}`))
	f.Add([]byte(`{"version":1,"apps":[{"id":"a","jobs":[{"total_work":1,"gang_size":1,"max_machines":1}]}]}`))
	f.Add([]byte(`{"version":2,"apps":[{"id":"a","placement":{"profile":"NoSuchNet"},"jobs":[{"total_work":1,"gang_size":1}]}]}`))
	f.Add([]byte(`{"version":2,"apps":[{"id":"a","placement":{"min_gpus_per_machine":-4,"max_machines":-9000000000000000000},"jobs":[{"total_work":1,"gang_size":1}]}]}`))
	f.Add([]byte(`{"version":2,"apps":[{"id":"a","placement":{"max_machines":9000000000000000000},"jobs":[{"total_work":1,"gang_size":1,"min_gpus_per_machine":9000000000000000000}]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must be structurally valid...
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read accepted a trace Validate rejects: %v", err)
		}
		// ...upgraded to the current format version (lossless v1 lift)...
		if tr.Version != FormatVersion {
			t.Fatalf("Read returned version %d, want upgrade to %d", tr.Version, FormatVersion)
		}
		// ...and round-trip bit-for-bit through encode→decode.
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("encoding an accepted trace failed: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an encoded trace failed: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\nfirst:  %+v\nsecond: %+v", tr, back)
		}
	})
}

// importContract asserts the shared CSV-adapter contract on a produced
// trace: valid, materialisable, and stable across the native encode→decode
// round-trip (import is normalisation, so replay equals re-reading the
// saved file).
func importContract(t *testing.T, tr Trace) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("import produced an invalid trace: %v", err)
	}
	if tr.Version != FormatVersion {
		t.Fatalf("import produced format version %d, want %d", tr.Version, FormatVersion)
	}
	if _, err := tr.ToApps(); err != nil {
		t.Fatalf("import produced an unmaterialisable trace: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("encoding an imported trace failed: %v", err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-decoding an imported trace failed: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("imported trace changed across encode→decode:\nfirst:  %+v\nsecond: %+v", tr, back)
	}
}

// FuzzPhillyImport asserts the CSV adapter's contract on arbitrary bytes: no
// panics, and any trace it produces meets importContract.
func FuzzPhillyImport(f *testing.F) {
	f.Add([]byte("jobid,submit_time,gpus,duration,status\nj-1,0,4,118,Pass\nj-2,10,8,30,Failed\n"))
	f.Add([]byte("jobid,submit_time,gpus,duration\nj-1,5,2,60\n"))
	f.Add([]byte("gpus,duration,jobid,submit_time\n1,1,x,0\n"))
	f.Add([]byte("jobid,submit_time,gpus,duration\nj-1,1e308,1e308,1e308\n"))
	f.Add([]byte("jobid,submit_time,gpus,duration\nj-1,NaN,+Inf,-Inf\n"))
	f.Add([]byte(`"unterminated`))
	f.Add([]byte("no header to speak of"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ImportPhilly(bytes.NewReader(data), ImportOptions{})
		if err != nil {
			return
		}
		importContract(t, tr)
		// The streaming top-K path must keep the same leading apps as the
		// uncapped pass, and placement stamping must stay valid, on every
		// input the importer accepts.
		capped, err := ImportPhilly(bytes.NewReader(data), ImportOptions{
			MaxApps:   2,
			Placement: &PlacementSpec{Profile: "VGG16", MinGPUsPerMachine: 1, MaxMachines: 2},
		})
		if err != nil {
			t.Fatalf("capped+stamped re-import of accepted input failed: %v", err)
		}
		importContract(t, capped)
		want := tr.Apps
		if len(want) > 2 {
			want = want[:2]
		}
		if len(capped.Apps) != len(want) {
			t.Fatalf("top-K kept %d apps, full import's head has %d", len(capped.Apps), len(want))
		}
		for i := range want {
			if capped.Apps[i].ID != want[i].ID || capped.Apps[i].SubmitTime != want[i].SubmitTime {
				t.Fatalf("top-K app %d = %s@%v, full sort has %s@%v", i,
					capped.Apps[i].ID, capped.Apps[i].SubmitTime, want[i].ID, want[i].SubmitTime)
			}
			if capped.Apps[i].Placement == nil {
				t.Fatalf("app %d lost its stamped placement block", i)
			}
		}
	})
}

// FuzzAlibabaImport holds the other CSV adapter to the same contract,
// including a time scale large enough to force overflow paths.
func FuzzAlibabaImport(f *testing.F) {
	f.Add([]byte("job_name,task_name,inst_num,status,start_time,end_time,plan_gpu\nj1,worker,2,Terminated,1200,4800,100\n"))
	f.Add([]byte("job_name,start_time,end_time,plan_gpu\nj1,0,600,50\nj1,30,900,200\n"))
	f.Add([]byte("job_name,start_time,end_time,plan_gpu\nj1,1e304,1.0000000000000001e304,100\n"))
	f.Add([]byte("job_name,start_time,end_time,plan_gpu\nj1,NaN,Inf,1e300\n"))
	f.Add([]byte(`"unterminated`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, scale := range []float64{0, 1e5} {
			tr, err := ImportAlibaba(bytes.NewReader(data), ImportOptions{TimeScale: scale})
			if err != nil {
				continue
			}
			importContract(t, tr)
			// The capped import must keep the uncapped import's leading apps
			// by (submit, ID), and placement stamping must stay valid.
			for _, maxApps := range []int{1, 2} {
				capped, err := ImportAlibaba(bytes.NewReader(data), ImportOptions{
					TimeScale: scale,
					MaxApps:   maxApps,
					Placement: &PlacementSpec{Profile: "VGG16", MinGPUsPerMachine: 1, MaxMachines: 2},
				})
				if err != nil {
					t.Fatalf("capped+stamped re-import of accepted input failed (cap %d): %v", maxApps, err)
				}
				importContract(t, capped)
				want := tr.Apps
				if len(want) > maxApps {
					want = want[:maxApps]
				}
				if len(capped.Apps) != len(want) {
					t.Fatalf("cap %d kept %d apps, uncapped import's head has %d", maxApps, len(capped.Apps), len(want))
				}
				for i := range want {
					if capped.Apps[i].ID != want[i].ID || capped.Apps[i].SubmitTime != want[i].SubmitTime {
						t.Fatalf("cap %d app %d = %s@%v, uncapped import has %s@%v", maxApps, i,
							capped.Apps[i].ID, capped.Apps[i].SubmitTime, want[i].ID, want[i].SubmitTime)
					}
					if capped.Apps[i].Placement == nil {
						t.Fatalf("cap %d app %d lost its stamped placement block", maxApps, i)
					}
				}
			}
		}
	})
}
