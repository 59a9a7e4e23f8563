package trace

import (
	"fmt"
	"io"
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
// rows can lower), so the MaxApps cap applies after grouping and memory is
// proportional to the kept task rows, not to the raw input:
// filtered and unparsable rows are never materialised. Progress is reported
// through opts.Progress, with Kept counting the distinct jobs seen so far.
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
		job, task, ok := scanAlibabaRow(row, cols, scale, opts)
		if !ok {
			continue
		}
		if _, seen := byJob[job]; !seen {
			order = append(order, job)
		}
		byJob[job] = append(byJob[job], task)
	}

	tr := Trace{Version: FormatVersion, Name: opts.Name}
	if tr.Name == "" {
		tr.Name = string(FormatAlibaba)
	}
	for _, job := range order {
		tr.Apps = append(tr.Apps, alibabaApp(job, byJob[job], opts))
	}
	normalizeImported(&tr, opts.MaxApps)
	sc.finish(len(tr.Apps))
	if len(tr.Apps) == 0 {
		return Trace{}, fmt.Errorf("trace: alibaba: no importable rows")
	}
	stampPlacement(&tr, opts.Placement)
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
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

// scanAlibabaRow parses and filters one data row. ok is false for short,
// filtered, unparsable or hostile rows. The job and task strings are cloned
// out of the scanner's reused record buffer, so the row is safe to keep.
func scanAlibabaRow(row []string, cols alibabaCols, scale float64, opts ImportOptions) (job string, task taskRow, ok bool) {
	if len(row) <= cols.max {
		return "", taskRow{}, false
	}
	if cols.status >= 0 && cols.status < len(row) && !completedStatus(row[cols.status]) && !opts.KeepNonCompleted {
		return "", taskRow{}, false
	}
	job = strings.TrimSpace(row[cols.job])
	start, errS := strconv.ParseFloat(strings.TrimSpace(row[cols.start]), 64)
	end, errE := strconv.ParseFloat(strings.TrimSpace(row[cols.end]), 64)
	planGPU, errG := strconv.ParseFloat(strings.TrimSpace(row[cols.gpu]), 64)
	if job == "" || !utf8.ValidString(job) || errS != nil || errE != nil || errG != nil {
		return "", taskRow{}, false
	}
	// Bound the numerics before converting: NaN/Inf and absurd GPU or
	// instance counts would overflow int conversion or poison work
	// accounting.
	if !isFinite(start) || !isFinite(end) || !(planGPU >= 0 && planGPU <= 1e8) {
		return "", taskRow{}, false
	}
	inst := 1.0
	if cols.inst >= 0 && cols.inst < len(row) {
		if v, err := strconv.ParseFloat(strings.TrimSpace(row[cols.inst]), 64); err == nil && v >= 1 && v <= 1e6 {
			inst = v
		}
	}
	name := ""
	if cols.task >= 0 && cols.task < len(row) {
		name = strings.TrimSpace(row[cols.task])
	}
	duration := (end - start) * scale
	gpusPerInst := int((planGPU + 99) / 100) // plan_gpu is percent of one GPU
	if gpusPerInst < 1 {
		gpusPerInst = 1
	}
	gang := gpusPerInst * int(inst)
	work := duration * float64(gang)
	if work <= 0 || start < 0 || !isFinite(work) || !isFinite(start*scale) {
		return "", taskRow{}, false
	}
	return strings.Clone(job), taskRow{
		name:  strings.Clone(name),
		start: start * scale,
		job: JobSpec{
			TotalWork: work,
			GangSize:  gang,
			Quality:   deriveQuality(job + "/" + name),
			Seed:      deriveSeed(job + "/" + name),
		},
	}, true
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
