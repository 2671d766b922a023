package topkmon

import (
	"encoding/json"
	"fmt"

	"topkmon/internal/admission"
	"topkmon/internal/pipeline"
	"topkmon/internal/recovery"
	"topkmon/internal/shard"
)

// facadeAux is the facade's own restart state, stored as the opaque
// application blob in every checkpoint manifest. It records the structural
// configuration a Restore must reproduce — layout, policies, pipeline
// shape — none of which lives in the engine state itself. Stream position
// (clock, sequence watermark) is deliberately absent: the engine clock in
// the checkpoint is the authority, and Restore resumes stamping from it.
// Manifests written while the queue could grow or drop its oldest batch
// carry two more keys (see testdata/legacy_aux.json); decoding ignores
// them, so such a lineage restores with a fixed-depth blocking queue.
type facadeAux struct {
	Policy             int     `json:"policy"`
	Shards             int     `json:"shards"`
	Partition          int     `json:"partition"`
	Placement          string  `json:"placement,omitempty"`
	RebalanceInterval  int     `json:"rebalanceInterval,omitempty"`
	RebalanceThreshold float64 `json:"rebalanceThreshold,omitempty"`
	PipeDepth          int     `json:"pipeDepth,omitempty"`
	Every              int     `json:"every,omitempty"`
	Sync               bool    `json:"sync,omitempty"`
	// Admission is the governor configuration (nil when admission control
	// is off). Only the configuration is durable: a restored monitor's
	// governor starts fresh in Normal — shed counters and smoothed
	// occupancy describe the dead process's load, not the new one's.
	Admission *AdmissionConfig `json:"admission,omitempty"`
}

// walSync translates the boolean option to the recovery policy.
func walSync(sync bool) recovery.SyncPolicy {
	if sync {
		return recovery.SyncAlways
	}
	return recovery.SyncNone
}

// facadeAuxBytes serializes the structural configuration for the manifest.
// A custom Placement implementation cannot be named in a file, so it is
// rejected up front — durability must not silently restore a different
// placement than the one that routed the existing queries.
func facadeAuxBytes(cfg *config) ([]byte, error) {
	st := facadeAux{
		Policy:             int(cfg.policy),
		Shards:             cfg.shards,
		Partition:          int(cfg.partition),
		RebalanceInterval:  cfg.rebalanceInterval,
		RebalanceThreshold: cfg.rebalanceThreshold,
		PipeDepth:          cfg.pipeDepth,
		Every:              cfg.checkpointEvery,
		Sync:               cfg.checkpointSync,
		Admission:          cfg.admission,
	}
	switch cfg.placement.(type) {
	case nil:
	case shard.HashPlacement, shard.LeastLoadedPlacement:
		st.Placement = cfg.placement.String()
	default:
		return nil, fmt.Errorf("topkmon: WithCheckpoint cannot persist custom placement policy %v; use PlacementHash or PlacementLeastLoaded", cfg.placement)
	}
	return json.Marshal(st)
}

// Restore rebuilds the monitor whose durability lineage lives in dir — a
// directory written by a WithCheckpoint monitor — by loading its latest
// checkpoint and replaying the write-ahead log suffix. The restored
// monitor is byte-identical to the one that died at its last logged cycle:
// same query ids, same results, same future update streams. Structural
// configuration (shards, partitioning, placement, pipeline, checkpoint
// cadence) comes from the checkpoint itself; the options accepted here
// cover only runtime collaborators the file cannot hold, such as
// WithClock. Tick stamping resumes past the recovered stream position.
//
// Restore fails with ErrNoCheckpoint when dir holds no lineage, ErrCorrupt
// when validation fails anywhere, and ErrVersion on a format from a
// different build.
func Restore(dir string, opts ...Option) (*Monitor, error) {
	auxBytes, err := recovery.ReadAux(dir)
	if err != nil {
		return nil, err
	}
	if len(auxBytes) == 0 {
		return nil, fmt.Errorf("%w: checkpoint in %s carries no facade state (written below pkg/topkmon?)", recovery.ErrCorrupt, dir)
	}
	var st facadeAux
	if err := json.Unmarshal(auxBytes, &st); err != nil {
		return nil, fmt.Errorf("%w: facade state: %v", recovery.ErrCorrupt, err)
	}
	cfg := config{policy: SMA}
	for _, opt := range opts {
		opt(&cfg)
	}

	var shardCfg shard.Config
	if st.Placement != "" {
		p, err := shard.ParsePlacement(st.Placement)
		if err != nil {
			return nil, fmt.Errorf("%w: facade state: %v", recovery.ErrCorrupt, err)
		}
		shardCfg.Placement = p
	}
	if st.RebalanceInterval > 0 {
		shardCfg.Rebalance = shard.RebalanceConfig{Interval: st.RebalanceInterval}
		if st.RebalanceThreshold > 0 {
			shardCfg.Rebalance.Threshold = st.RebalanceThreshold
		}
	}

	m := &Monitor{policy: Policy(st.Policy), clock: cfg.clock, shards: st.Shards}
	if m.shards < 1 {
		m.shards = 1
	}
	g, _, err := recovery.Restore(dir, recovery.RestoreOptions{
		Every:       st.Every,
		Sync:        walSync(st.Sync),
		Aux:         func() []byte { return auxBytes },
		ShardConfig: shardCfg,
	})
	if err != nil {
		return nil, err
	}
	m.guard = g
	m.mon = g

	// Resume tick stamping strictly after everything the recovered engine
	// has seen: the next stamped cycle gets a fresh timestamp and the
	// sequence counter continues from the last admitted tuple.
	clk := g.CurrentClock()
	if clk.HaveSeq {
		m.seq = clk.LastSeq
	}
	if clk.Started {
		m.nextTS = clk.Now + 1
	}

	if st.PipeDepth > 0 {
		popts := pipeline.Options{Depth: st.PipeDepth, DropLog: g}
		if st.Admission != nil {
			m.gov = admission.New(*st.Admission)
			popts.Admission = m.gov
		}
		m.pipe = pipeline.New(m.mon, popts)
		m.mon = m.pipe
	}
	return m, nil
}
