package topkmon

import (
	"encoding/json"
	"fmt"

	"topkmon/internal/admission"
	"topkmon/internal/pipeline"
	"topkmon/internal/recovery"
)

// facadeAux is the facade's own restart state, stored as the opaque
// application blob in every checkpoint manifest. It records the structural
// configuration a Restore must reproduce — layout, policies, pipeline
// shape — none of which lives in the engine state itself. Stream position
// (clock, sequence watermark) is deliberately absent: the engine clock in
// the checkpoint is the authority, and Restore resumes stamping from it.
// Decoding ignores keys older manifests carry for retired options: the
// queue's growth and drop policy (see testdata/legacy_aux.json), and query
// placement and rebalancing (testdata/legacy_rebalance_aux.json). Such a
// lineage restores with a fixed-depth blocking queue and hash placement.
type facadeAux struct {
	Policy    int  `json:"policy"`
	Shards    int  `json:"shards"`
	Partition int  `json:"partition"`
	PipeDepth int  `json:"pipeDepth,omitempty"`
	Every     int  `json:"every,omitempty"`
	Sync      bool `json:"sync,omitempty"`
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
func facadeAuxBytes(cfg *config) ([]byte, error) {
	return json.Marshal(facadeAux{
		Policy:    int(cfg.policy),
		Shards:    cfg.shards,
		Partition: int(cfg.partition),
		PipeDepth: cfg.pipeDepth,
		Every:     cfg.checkpointEvery,
		Sync:      cfg.checkpointSync,
		Admission: cfg.admission,
	})
}

// Restore rebuilds the monitor whose durability lineage lives in dir — a
// directory written by a WithCheckpoint monitor — by loading its latest
// checkpoint and replaying the write-ahead log suffix. The restored
// monitor is byte-identical to the one that died at its last logged cycle:
// same query ids, same results, same future update streams. Structural
// configuration (shards, partitioning, pipeline, checkpoint cadence) comes
// from the checkpoint itself; the options accepted here cover only
// runtime collaborators the file cannot hold, such as WithClock. Tick stamping resumes past the recovered stream position.
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

	m := &Monitor{policy: Policy(st.Policy), clock: cfg.clock, shards: st.Shards}
	if m.shards < 1 {
		m.shards = 1
	}
	g, _, err := recovery.Restore(dir, recovery.RestoreOptions{
		Every: st.Every,
		Sync:  walSync(st.Sync),
		Aux:   func() []byte { return auxBytes },
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
