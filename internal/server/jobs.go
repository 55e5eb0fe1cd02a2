package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dbvirt/internal/obs"
)

// Job states. A job is terminal in done, failed, or canceled.
const (
	jobQueued   = "queued"
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

var (
	// ErrQueueFull rejects a submission when the bounded job queue is at
	// capacity — the admission-control signal mapped to 429.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining rejects a submission once drain has begun.
	ErrDraining = errors.New("server: draining, not accepting new jobs")
)

var (
	mJobsSubmitted = obs.Global.Counter("server.jobs.submitted")
	mJobsCompleted = obs.Global.Counter("server.jobs.completed")
	mJobsFailed    = obs.Global.Counter("server.jobs.failed")
	mJobsCanceled  = obs.Global.Counter("server.jobs.canceled")
	mJobsRejected  = obs.Global.Counter("server.jobs.rejected")
	gJobQueueDepth = obs.Global.Gauge("server.jobs.queue.depth")
	hJobSeconds    = obs.Global.Histogram("server.jobs.seconds")
)

// job is one asynchronous solve. Mutable fields are guarded by mu; done
// closes when the job reaches a terminal state.
type job struct {
	id  string
	req SolveRequest
	sc  obs.SpanContext // submitting request's trace context

	mu     sync.Mutex
	state  string
	result *SolveResult
	errMsg string
	cancel context.CancelFunc // non-nil once running

	done chan struct{}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Result: j.result, Error: j.errMsg}
}

func terminalState(state string) bool {
	return state == jobDone || state == jobFailed || state == jobCanceled
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state)
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(state string, res *SolveResult, errMsg string) {
	j.mu.Lock()
	if terminalState(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.mu.Unlock()
	switch state {
	case jobDone:
		mJobsCompleted.Inc()
	case jobFailed:
		mJobsFailed.Inc()
	case jobCanceled:
		mJobsCanceled.Inc()
	}
	close(j.done)
}

// jobManager runs solve jobs on a bounded worker pool behind a bounded
// queue. Admission control is by construction: a full queue rejects with
// ErrQueueFull instead of queueing unbounded work, and once draining no
// new jobs are accepted while every accepted job still runs to
// completion — an accepted 202 is a promise the daemon keeps.
type jobManager struct {
	run func(ctx context.Context, j *job) (*SolveResult, error)

	mu           sync.Mutex
	jobs         map[string]*job
	order        []string // retained job ids, oldest first, for bounded retention
	evictScanned int64    // entries evictLocked has examined
	queue        chan *job
	draining     bool
	seq          int64
	maxJobs      int

	workers sync.WaitGroup
	// baseCtx parents every job's context; baseCancel aborts running jobs
	// if a drain deadline expires.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

func newJobManager(workers, queueCap, maxJobs int, run func(ctx context.Context, j *job) (*SolveResult, error)) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &jobManager{
		run:        run,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, queueCap),
		maxJobs:    maxJobs,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	for i := 0; i < workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m
}

func (m *jobManager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		gJobQueueDepth.Set(float64(len(m.queue)))
		m.execute(j)
	}
}

func (m *jobManager) execute(j *job) {
	j.mu.Lock()
	if j.state != jobQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	if j.req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, time.Duration(j.req.TimeoutMS)*time.Millisecond)
	}
	j.state = jobRunning
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	start := time.Now()
	res, err := m.run(ctx, j)
	hJobSeconds.ObserveSince(start)
	switch {
	case err == nil:
		j.finish(jobDone, res, "")
	case errors.Is(err, context.Canceled):
		j.finish(jobCanceled, nil, "canceled")
	default:
		j.finish(jobFailed, nil, err.Error())
	}
}

// submit queues one job, enforcing drain and queue bounds. sc is the
// submitting request's trace context, carried across the async boundary.
func (m *jobManager) submit(req SolveRequest, sc obs.SpanContext) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	m.seq++
	j := &job{
		id:    fmt.Sprintf("j-%d", m.seq),
		req:   req,
		sc:    sc,
		state: jobQueued,
		done:  make(chan struct{}),
	}
	select {
	case m.queue <- j:
	default:
		mJobsRejected.Inc()
		return nil, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	mJobsSubmitted.Inc()
	gJobQueueDepth.Set(float64(len(m.queue)))
	return j, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention cap so
// a long-running daemon's job table stays bounded. It works from the head
// of the submission order: a terminal head is dropped; a queued or
// running one is never evicted — it goes back to the tail, to be looked
// at again when it is oldest once more. Every submit adds one entry and,
// at the cap, removes one, so it examines one entry plus the live jobs it
// meets at the head, and there are never more of those than workers and
// queue slots.
func (m *jobManager) evictLocked() {
	if m.maxJobs <= 0 {
		return
	}
	// One pass over the order at most: a table of only live jobs ends it.
	for n := len(m.order); len(m.jobs) > m.maxJobs && n > 0; n-- {
		id := m.order[0]
		m.order = m.order[1:]
		m.evictScanned++
		if m.jobs[id].terminal() {
			delete(m.jobs, id)
		} else {
			m.order = append(m.order, id)
		}
	}
}

// get returns the job by ID.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// cancelJob cancels a queued or running job; terminal jobs are left
// untouched. It reports whether the job exists.
func (m *jobManager) cancelJob(id string) (JobStatus, bool) {
	j, ok := m.get(id)
	if !ok {
		return JobStatus{}, false
	}
	j.mu.Lock()
	switch j.state {
	case jobQueued:
		j.state = jobCanceled
		j.errMsg = "canceled"
		j.mu.Unlock()
		mJobsCanceled.Inc()
		close(j.done)
	case jobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		cancel() // the worker observes ctx.Canceled and finishes the job
	default:
		j.mu.Unlock()
	}
	return j.status(), true
}

// drain stops accepting new jobs and waits for every accepted job to
// reach a terminal state. If ctx expires first, running jobs are
// canceled (they finish as canceled, not dropped) and ctx's error is
// returned after the workers exit.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		m.baseCancel()
		<-idle // workers unwind promptly once their contexts die
		return ctx.Err()
	}
}
