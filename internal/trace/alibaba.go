package trace

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ImportAlibaba normalises an Alibaba-style CSV cluster log into a Trace.
// The shape follows the Alibaba GPU cluster traces: one row per task, keyed
// by job name, with an instance count, a fractional GPU request (plan_gpu,
// in percent of one GPU), Unix start/end times and a status:
//
//	job_name,task_name,inst_num,status,start_time,end_time,plan_gpu
//	j1,tensorflow,2,Terminated,1000,4600,100
//
// Rows sharing a job_name group into one app with a job per task row; the
// app's submission time is its earliest task start. A task's gang size is
// inst_num × ceil(plan_gpu / 100) and its serial work is gang × duration.
// Times are Unix seconds unless ImportOptions.TimeScale overrides the 1/60
// scale. Non-completed rows drop unless KeepNonCompleted is set ("Terminated"
// is Alibaba's completed state), and rows with non-positive durations are
// always dropped. Apps are sorted by submission time and rebased to 0.
//
// The pass streams rows off a reused record buffer, but — unlike the
// row-per-job Philly adapter — it must group tasks by job before it knows
// any app's submission time (the minimum over its task rows, which later
// rows can lower), so by default the MaxApps cap applies after grouping and
// memory is proportional to the kept task rows, not to the raw input:
// filtered and unparsable rows are never materialised. Progress is reported
// through opts.Progress, with Kept counting the distinct jobs seen so far.
//
// When the input rows are already sorted by start time — true for archived
// cluster dumps — set ImportOptions.SortedInput: the first row of each job
// then fixes its submission time, so the pass keeps only the current top-K
// jobs' tasks and memory drops to O(MaxApps) like the Philly adapter. The
// sorted pass verifies the ordering of every importable row and fails with a
// typed error on a violation rather than silently importing wrong
// submission times; both paths produce byte-identical traces on sorted
// input.
func ImportAlibaba(r io.Reader, opts ImportOptions) (Trace, error) {
	if err := opts.Validate(); err != nil {
		return Trace{}, err
	}
	scale := opts.TimeScale
	if scale == 0 {
		scale = 1.0 / 60 // Alibaba-style rows carry Unix seconds
	}
	sc := newRowScanner(r, FormatAlibaba, opts)

	header, err := sc.header()
	if err != nil {
		return Trace{}, fmt.Errorf("trace: alibaba: reading header: %w", err)
	}
	cols, err := alibabaColumns(header)
	if err != nil {
		return Trace{}, err
	}
	if opts.SortedInput {
		return importAlibabaSorted(sc, cols, scale, opts)
	}

	byJob := make(map[string][]taskRow)
	var order []string
	line := 1
	for {
		row, err := sc.next(func() int { return len(byJob) })
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return Trace{}, fmt.Errorf("trace: alibaba: line %d: %w", line, err)
		}
		sr, ok := scanAlibabaRow(row, cols, scale, opts)
		if !ok {
			continue
		}
		job, task := sr.build()
		if _, seen := byJob[job]; !seen {
			order = append(order, job)
		}
		byJob[job] = append(byJob[job], task)
	}

	tr := newAlibabaTrace(opts)
	for _, job := range order {
		tr.Apps = append(tr.Apps, alibabaApp(job, byJob[job], opts))
	}
	normalizeImported(&tr, opts.MaxApps)
	sc.finish(len(tr.Apps))
	return finishAlibaba(tr, opts)
}

// alibabaCols holds the resolved header indices of one import pass.
type alibabaCols struct {
	job, task, inst, status, start, end, gpu int
	max                                      int
}

// alibabaColumns resolves the header aliases, requiring the columns the
// adapter cannot work without.
func alibabaColumns(header []string) (alibabaCols, error) {
	cols := alibabaCols{
		job:    columnIndex(header, "job_name", "job_id", "jobid", "job"),
		task:   columnIndex(header, "task_name", "task"), // optional
		inst:   columnIndex(header, "inst_num", "instances", "inst"),
		status: columnIndex(header, "status", "state"), // optional
		start:  columnIndex(header, "start_time", "start"),
		end:    columnIndex(header, "end_time", "end"),
		gpu:    columnIndex(header, "plan_gpu", "gpu", "gpus"),
	}
	if cols.job < 0 || cols.start < 0 || cols.end < 0 || cols.gpu < 0 {
		return cols, fmt.Errorf("trace: alibaba: header %v missing job_name/start_time/end_time/plan_gpu", header)
	}
	cols.max = cols.job
	for _, c := range []int{cols.start, cols.end, cols.gpu} {
		if c > cols.max {
			cols.max = c
		}
	}
	return cols, nil
}

// taskRow is one parsed, importable task row.
type taskRow struct {
	name  string
	start float64
	job   JobSpec
}

// scannedRow is one importable data row after filtering and numeric
// parsing. The job and task strings are views into the scanner's reused
// record buffer — valid only until the next read; build copies them.
// Splitting scan from build lets the sorted fast path decide from the raw
// view whether a row's job is kept at all before paying the string clones
// and ID hashes, which on a capped multi-GB import is almost every row.
type scannedRow struct {
	job, task string
	start     float64 // scaled
	work      float64
	gang      int
}

// scanAlibabaRow parses and filters one data row without allocating. ok is
// false for short, filtered, unparsable or hostile rows — exactly the rows
// both accumulation paths skip.
func scanAlibabaRow(row []string, cols alibabaCols, scale float64, opts ImportOptions) (scannedRow, bool) {
	if len(row) <= cols.max {
		return scannedRow{}, false
	}
	if cols.status >= 0 && cols.status < len(row) && !completedStatus(row[cols.status]) && !opts.KeepNonCompleted {
		return scannedRow{}, false
	}
	job := strings.TrimSpace(row[cols.job])
	start, errS := strconv.ParseFloat(strings.TrimSpace(row[cols.start]), 64)
	end, errE := strconv.ParseFloat(strings.TrimSpace(row[cols.end]), 64)
	planGPU, errG := strconv.ParseFloat(strings.TrimSpace(row[cols.gpu]), 64)
	if job == "" || !utf8.ValidString(job) || errS != nil || errE != nil || errG != nil {
		return scannedRow{}, false
	}
	// Bound the numerics before converting: NaN/Inf and absurd GPU or
	// instance counts would overflow int conversion or poison work
	// accounting.
	if !isFinite(start) || !isFinite(end) || !(planGPU >= 0 && planGPU <= 1e8) {
		return scannedRow{}, false
	}
	inst := 1.0
	if cols.inst >= 0 && cols.inst < len(row) {
		if v, err := strconv.ParseFloat(strings.TrimSpace(row[cols.inst]), 64); err == nil && v >= 1 && v <= 1e6 {
			inst = v
		}
	}
	task := ""
	if cols.task >= 0 && cols.task < len(row) {
		task = strings.TrimSpace(row[cols.task])
	}
	duration := (end - start) * scale
	gpusPerInst := int((planGPU + 99) / 100) // plan_gpu is percent of one GPU
	if gpusPerInst < 1 {
		gpusPerInst = 1
	}
	gang := gpusPerInst * int(inst)
	work := duration * float64(gang)
	if work <= 0 || start < 0 || !isFinite(work) || !isFinite(start*scale) {
		return scannedRow{}, false
	}
	return scannedRow{job: job, task: task, start: start * scale, work: work, gang: gang}, true
}

// build materialises a retained row: the ID-derived quality/seed hashes plus
// copies of the job and task cells, safe to keep past the record reuse.
func (r scannedRow) build() (string, taskRow) {
	return strings.Clone(r.job), taskRow{
		name:  strings.Clone(r.task),
		start: r.start,
		job: JobSpec{
			TotalWork: r.work,
			GangSize:  r.gang,
			Quality:   deriveQuality(r.job + "/" + r.task),
			Seed:      deriveSeed(r.job + "/" + r.task),
		},
	}
}

// alibabaApp assembles one grouped job's AppSpec: tasks sorted by
// (start, name), submission time the earliest task start.
func alibabaApp(job string, tasks []taskRow, opts ImportOptions) AppSpec {
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].start != tasks[j].start {
			return tasks[i].start < tasks[j].start
		}
		return tasks[i].name < tasks[j].name
	})
	spec := AppSpec{ID: job, SubmitTime: tasks[0].start, Model: opts.Model}
	for _, t := range tasks {
		spec.Jobs = append(spec.Jobs, t.job)
	}
	return spec
}

func newAlibabaTrace(opts ImportOptions) Trace {
	tr := Trace{Version: FormatVersion, Name: opts.Name}
	if tr.Name == "" {
		tr.Name = string(FormatAlibaba)
	}
	return tr
}

// finishAlibaba applies the shared tail of both accumulation paths.
func finishAlibaba(tr Trace, opts ImportOptions) (Trace, error) {
	if len(tr.Apps) == 0 {
		return Trace{}, fmt.Errorf("trace: alibaba: no importable rows")
	}
	stampPlacement(&tr, opts.Placement)
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// importAlibabaSorted is the SortedInput fast path: because every importable
// row's start time is non-decreasing, a job's first row fixes its submission
// time, so an online top-K selection over jobs (mirroring the Philly
// adapter's topKApps, but carrying each kept job's accumulated tasks) bounds
// memory to the current top MaxApps jobs' tasks instead of every job's.
//
// Ties need care: a new job whose submission time equals the current K-th
// smallest may displace it by ID order (matching the unsorted path's
// (submit, ID) truncation exactly), and a job dropped or evicted at a tied
// submission time could otherwise be mistaken for a brand-new job when a
// later task row of it arrives. Such jobs are remembered in a tombstone set;
// jobs dropped at strictly later submission times can never be re-admitted
// (the K-th smallest submission only decreases) and need no tombstone, so
// the set stays empty except under tie-heavy inputs.
func importAlibabaSorted(sc *rowScanner, cols alibabaCols, scale float64, opts ImportOptions) (Trace, error) {
	k := opts.MaxApps
	kept := make(map[string]*sortedJobAcc)
	var worst sortedJobHeap // max-heap by (submit, ID): root is the eviction candidate
	tombstones := make(map[string]struct{})
	prev := math.Inf(-1)
	line := 1
	for {
		row, err := sc.next(func() int { return len(kept) })
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return Trace{}, fmt.Errorf("trace: alibaba: line %d: %w", line, err)
		}
		sr, ok := scanAlibabaRow(row, cols, scale, opts)
		if !ok {
			continue
		}
		if sr.start < prev {
			return Trace{}, fmt.Errorf("trace: alibaba: line %d: input declared sorted but start time %v precedes %v (import without SortedInput)",
				line, sr.start, prev)
		}
		prev = sr.start
		// Kept-set lookups run on the raw (reused-buffer) job view; clones
		// and ID hashes are paid only for rows that are actually retained,
		// so dropped rows — almost all of them on a capped import — cost no
		// allocation.
		if acc, ok := kept[sr.job]; ok {
			// Later rows of a kept job cannot lower its submission time on
			// sorted input; just accumulate the task.
			_, task := sr.build()
			acc.tasks = append(acc.tasks, task)
			continue
		}
		if _, dead := tombstones[sr.job]; dead {
			continue
		}
		if k <= 0 || len(kept) < k {
			job, task := sr.build()
			acc := &sortedJobAcc{id: job, submit: sr.start, tasks: []taskRow{task}}
			kept[job] = acc
			heap.Push(&worst, acc)
			continue
		}
		max := worst[0]
		if sr.start == max.submit && sr.job < max.id {
			// The new job outranks the current K-th by ID at a tied
			// submission time; displace it, exactly as the unsorted path's
			// sort-and-truncate would.
			heap.Pop(&worst)
			delete(kept, max.id)
			tombstones[max.id] = struct{}{}
			job, task := sr.build()
			acc := &sortedJobAcc{id: job, submit: sr.start, tasks: []taskRow{task}}
			kept[job] = acc
			heap.Push(&worst, acc)
			continue
		}
		if sr.start == max.submit {
			// Dropped at a tied submission time: a later row of this job
			// would look brand-new and could wrongly re-enter by ID order.
			tombstones[strings.Clone(sr.job)] = struct{}{}
		}
	}

	tr := newAlibabaTrace(opts)
	for _, acc := range worst {
		tr.Apps = append(tr.Apps, alibabaApp(acc.id, acc.tasks, opts))
	}
	normalizeImported(&tr, opts.MaxApps)
	sc.finish(len(tr.Apps))
	return finishAlibaba(tr, opts)
}

// sortedJobAcc is one kept job of the sorted fast path: its fixed submission
// time and accumulated task rows.
type sortedJobAcc struct {
	id     string
	submit float64
	tasks  []taskRow
}

// sortedJobHeap is a max-heap of kept jobs under (submit, ID) order, so the
// root is the next job an incoming tie would displace.
type sortedJobHeap []*sortedJobAcc

func (h sortedJobHeap) Len() int { return len(h) }
func (h sortedJobHeap) Less(i, j int) bool {
	if h[i].submit != h[j].submit {
		return h[j].submit < h[i].submit
	}
	return h[j].id < h[i].id
}
func (h sortedJobHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *sortedJobHeap) Push(x interface{}) { *h = append(*h, x.(*sortedJobAcc)) }
func (h *sortedJobHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	x := old[n]
	*h = old[:n]
	return x
}
