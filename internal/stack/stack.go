// Package stack assembles a monitor from its layers. The paper's server is
// one engine (internal/core); everything this repository adds around it
// composes in one order, inner to outer:
//
//	engine, or data-partitioned shards (internal/shard)
//	→ durability guard (internal/recovery)
//	→ ingestion pipeline (internal/pipeline), with the admission
//	  governor (internal/admission) in front of its queue
//
// and the guard doubles as the pipeline's drop log, so batches the governor
// sheds still reach the WAL. The facade's New and Restore, the experiment
// harness and the differential tests all assemble through Build or
// Restore: this package is the one place that knows the order.
package stack

import (
	"encoding/json"
	"fmt"

	"topkmon/internal/admission"
	"topkmon/internal/core"
	"topkmon/internal/pipeline"
	"topkmon/internal/recovery"
	"topkmon/internal/shard"
)

// Config is a stack's shape. Its JSON form is the structural part of a
// checkpoint lineage's application blob: Restore rebuilds the same stack
// from it. Engine, Dir and Aux are runtime values the blob does not carry
// (the engine options live in the checkpoint itself). A blob written
// before the query-partitioned layout was retired also carries a
// "partition" key, and one written while the governor's tunables were
// settable carries them inside "admission"; decoding ignores both.
type Config struct {
	// Engine configures every engine in the stack.
	Engine core.Options `json:"-"`
	// Shards > 1 runs that many engines, each indexing a hash slice of the
	// stream and running every query (shard.DataSharded).
	Shards int `json:"shards"`
	// PipeDepth > 0 fronts the stack with the asynchronous ingestion
	// pipeline at that queue depth.
	PipeDepth int `json:"pipeDepth,omitempty"`
	// Dir, when set, wraps the inner monitor in the durability guard,
	// which WAL-logs every batch into Dir and checkpoints every Every
	// successful cycles (0 = only at Close), fsyncing each append when
	// Sync is set. Dir must not already hold a lineage.
	Dir   string `json:"-"`
	Every int    `json:"every,omitempty"`
	Sync  bool   `json:"sync,omitempty"`
	// Admission, when set, installs the load-shedding governor in front
	// of the pipeline's queue. It requires PipeDepth > 0. Only the
	// configuration is durable: a restored governor starts in Normal.
	Admission *admission.Config `json:"admission,omitempty"`
	// Aux is stored verbatim in every checkpoint manifest; nil stores the
	// Config's own JSON. Restore decodes the stack's shape from it, so it
	// must be a JSON object holding this Config's keys; other keys are the
	// caller's own and are ignored.
	Aux []byte `json:"-"`
}

// Validate checks the layer combination. The governor fronts the
// pipeline's ingest queue, so admission without a pipeline is rejected
// rather than silently ungoverned.
func (c Config) Validate() error {
	if c.Admission != nil && c.PipeDepth <= 0 {
		return fmt.Errorf("stack: admission requires a pipeline: the governor fronts the ingest queue")
	}
	return nil
}

// Stack is an assembled monitor. Mon is the outermost layer, the one
// callers drive; a layer cfg did not ask for is nil.
type Stack struct {
	Mon    core.StreamMonitor
	Pipe   *pipeline.Pipeline  // under PipeDepth > 0; then Mon == Pipe
	Guard  *recovery.Guard     // under Dir; inside the pipeline
	Gov    *admission.Governor // under Admission
	Shards int                 // engine count, 1 for a single engine
}

// Build assembles the stack cfg describes. prefill, when non-nil, runs
// synchronously on the inner monitor before any other layer exists, so a
// guard's initial checkpoint already holds whatever it put there.
func Build(cfg Config, prefill func(core.StreamMonitor) error) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := cfg.inner()
	if err != nil {
		return nil, err
	}
	if prefill != nil {
		if err := prefill(inner); err != nil {
			inner.Close()
			return nil, err
		}
	}
	s := &Stack{Mon: inner, Shards: max(cfg.Shards, 1)}
	if cfg.Dir != "" {
		aux := cfg.Aux
		if aux == nil {
			aux, err = json.Marshal(cfg)
		}
		if err == nil {
			s.Guard, err = recovery.NewGuard(inner, cfg.Dir, recovery.GuardOptions{
				Every: cfg.Every,
				Sync:  walSync(cfg.Sync),
				Aux:   func() []byte { return aux },
			})
		}
		if err != nil {
			inner.Close()
			return nil, err
		}
		s.Mon = s.Guard
	}
	s.front(cfg)
	return s, nil
}

// Restore rebuilds the stack whose lineage Build started in dir:
// recovery.Restore reinstates the inner monitor and its guard, and the
// pipeline and governor the manifest's blob names go back in front. It
// returns the blob, which the guard keeps writing into later manifests.
func Restore(dir string) (*Stack, []byte, error) {
	aux, err := recovery.ReadAux(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(aux) == 0 {
		return nil, nil, fmt.Errorf("%w: checkpoint in %s carries no stack configuration (not written by Build?)", recovery.ErrCorrupt, dir)
	}
	var cfg Config
	if err := json.Unmarshal(aux, &cfg); err != nil {
		return nil, nil, fmt.Errorf("%w: stack configuration: %v", recovery.ErrCorrupt, err)
	}
	g, _, err := recovery.Restore(dir, recovery.RestoreOptions{
		Every: cfg.Every,
		Sync:  walSync(cfg.Sync),
		Aux:   func() []byte { return aux },
	})
	if err != nil {
		return nil, nil, err
	}
	s := &Stack{Mon: g, Guard: g, Shards: max(cfg.Shards, 1)}
	s.front(cfg)
	return s, aux, nil
}

// inner builds the engine layer: one engine, or cfg.Shards of them.
func (c Config) inner() (core.StreamMonitor, error) {
	if c.Shards > 1 {
		return shard.NewData(c.Engine, c.Shards)
	}
	return core.NewEngine(c.Engine)
}

// front puts the pipeline, and the governor when cfg names one, in front
// of s.Mon.
func (s *Stack) front(cfg Config) {
	if cfg.PipeDepth <= 0 {
		return
	}
	popts := pipeline.Options{Depth: cfg.PipeDepth}
	if s.Guard != nil {
		popts.DropLog = s.Guard
	}
	if cfg.Admission != nil {
		s.Gov = admission.New(*cfg.Admission)
		popts.Admission = s.Gov
	}
	s.Pipe = pipeline.New(s.Mon, popts)
	s.Mon = s.Pipe
}

// walSync translates Config.Sync to the WAL's fsync policy.
func walSync(sync bool) recovery.SyncPolicy {
	if sync {
		return recovery.SyncAlways
	}
	return recovery.SyncNone
}
