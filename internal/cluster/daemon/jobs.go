package daemon

import (
	"fmt"
	"sync"
	"time"

	"filaments"
	"filaments/internal/obs"
)

// JobState is a job's position in its lifecycle:
// queued → running → done | failed.
//
//dflint:states
//dflint:transitions JobQueued->JobRunning JobRunning->JobDone JobRunning->JobFailed
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobSpec is what a client submits: which app to run and its problem
// shape. Cluster size, page diffs, and event batching are daemon-wide and
// not per job.
type JobSpec struct {
	// App is the program to run: jacobi, matmul, or quadrature.
	App string `json:"app"`
	// N is the problem size (grid/matrix dimension); app default if 0.
	N int `json:"n,omitempty"`
	// Iters is the iteration count (jacobi); app default if 0.
	Iters int `json:"iters,omitempty"`
	// Protocol selects the DSM protocol: migratory, write-invalidate,
	// implicit-invalidate, lazy-release; app default if empty.
	Protocol string `json:"protocol,omitempty"`
	// Stealing enables fork/join load balancing (quadrature defaults on).
	Stealing bool `json:"stealing,omitempty"`
	// Trace records a Chrome trace for the job, served at
	// /jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
}

// protocol resolves the spec's protocol string against the app's
// default (the same defaulting DFUDP applies).
func (s JobSpec) protocol() (filaments.Protocol, error) {
	switch s.Protocol {
	case "":
		switch s.App {
		case "quadrature":
			return filaments.Migratory, nil
		case "matmul":
			return filaments.WriteInvalidate, nil
		default:
			return filaments.ImplicitInvalidate, nil
		}
	case "migratory":
		return filaments.Migratory, nil
	case "write-invalidate":
		return filaments.WriteInvalidate, nil
	case "implicit-invalidate":
		return filaments.ImplicitInvalidate, nil
	case "lazy-release":
		return filaments.LazyRelease, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (migratory | write-invalidate | implicit-invalidate | lazy-release)", s.Protocol)
	}
}

// validate rejects specs the scheduler could not run.
func (s JobSpec) validate() error {
	switch s.App {
	case "jacobi", "matmul", "quadrature":
	case "":
		return fmt.Errorf("missing app (jacobi | matmul | quadrature)")
	default:
		return fmt.Errorf("unknown app %q (jacobi | matmul | quadrature)", s.App)
	}
	if _, err := s.protocol(); err != nil {
		return err
	}
	if s.N < 0 || s.Iters < 0 {
		return fmt.Errorf("n and iters must be >= 0")
	}
	return nil
}

// JobResult is the completed job's outcome.
type JobResult struct {
	// OK reports result verification: bitwise equality against the
	// sequential reference for jacobi/matmul, tolerance comparison for
	// quadrature.
	OK bool `json:"ok"`
	// Output is a one-line human-readable result summary.
	Output string `json:"output"`
	// ElapsedMS is the job's wall-clock run time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Metrics is the run-scoped counter aggregation (node counters exact,
	// endpoint counters as the run's interval delta).
	Metrics []obs.Sample `json:"metrics"`
}

// Job is one submitted job's record. Mutable fields are guarded by mu;
// done closes when the job reaches a terminal state.
type Job struct {
	ID   string
	Spec JobSpec

	mu         sync.Mutex
	state      JobState
	generation uint64 // membership generation when scheduled
	lane       int    // service-id lane the job ran on
	submitted  time.Time
	started    time.Time
	finished   time.Time
	errMsg     string
	result     *JobResult
	trace      []byte // Chrome trace JSON, when Spec.Trace

	done chan struct{}
}

func newJob(id string, spec JobSpec, now time.Time) *Job {
	return &Job{ID: id, Spec: spec, state: JobQueued, submitted: now, done: make(chan struct{})}
}

// Done returns a channel closed when the job reaches done or failed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's result, nil until done.
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure message, empty unless state is failed.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Trace returns the job's Chrome trace JSON (nil unless Spec.Trace and
// the job is done).
func (j *Job) Trace() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

func (j *Job) start(gen uint64, now time.Time) {
	j.mu.Lock()
	j.state = JobRunning
	j.generation = gen
	j.started = now
	j.mu.Unlock()
}

func (j *Job) finish(res *JobResult, trace []byte, err error, now time.Time) {
	j.mu.Lock()
	j.finished = now
	j.result = res
	j.trace = trace
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
	}
	j.mu.Unlock()
	close(j.done)
}

// jobView is the API's JSON rendering of a job snapshot.
type jobView struct {
	ID         string     `json:"id"`
	App        string     `json:"app"`
	Spec       JobSpec    `json:"spec"`
	State      JobState   `json:"state"`
	Generation uint64     `json:"generation,omitempty"`
	Lane       int        `json:"lane"`
	Submitted  time.Time  `json:"submitted"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:         j.ID,
		App:        j.Spec.App,
		Spec:       j.Spec,
		State:      j.state,
		Generation: j.generation,
		Lane:       j.lane,
		Submitted:  j.submitted,
		Error:      j.errMsg,
		Result:     j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
