package topkmon

import (
	"encoding/json"
	"fmt"
	"reflect"

	"topkmon/internal/recovery"
	"topkmon/internal/stack"
)

// facadeAux is the facade's own restart state, stored as the opaque
// application blob in every checkpoint manifest: the stack's shape, plus
// the default policy RegisterTopK uses, none of which lives in the engine
// state itself. Stream position (clock, sequence watermark) is
// deliberately absent: the engine clock in the checkpoint is the
// authority, and Restore resumes stamping from it. Decoding ignores keys
// older manifests carry for retired options: the queue's growth and drop
// policy (see testdata/legacy_aux.json), query placement and rebalancing
// (testdata/legacy_rebalance_aux.json), the shard layout ("partition"),
// and the governor tunables that are now fixed: the "admission" object's
// RateIncrease, RateDecrease, MinRate, MaxRate, LowWatermark,
// HighWatermark, MaxDropProb, OccupancyAlpha, MemHighFraction,
// MemLowFraction and HealthyExit (testdata/legacy_admission_aux.json).
// Such a lineage restores with a fixed-depth blocking queue, data-partitioned
// shards and the fixed governor tuning; one whose checkpoint holds
// query-partitioned shards is refused as ErrVersion
// (testdata/query-sharded-lineage).
type facadeAux struct {
	Policy int `json:"policy"`
	stack.Config
}

// Restore rebuilds the monitor whose durability lineage lives in dir — a
// directory written by a WithCheckpoint monitor — by loading its latest
// checkpoint and replaying the write-ahead log suffix. The restored
// monitor is byte-identical to the one that died at its last logged cycle:
// same query ids, same results, same future update streams. Structural
// configuration (window, shards, pipeline, admission,
// checkpoint cadence, default policy) comes from the checkpoint itself;
// the options accepted here cover only runtime collaborators the file
// cannot hold, such as WithClock, and an option that would change the
// structure is an error. Tick stamping resumes past the recovered stream
// position.
//
// Restore fails with ErrNoCheckpoint when dir holds no lineage, ErrCorrupt
// when validation fails anywhere, and ErrVersion on a format from a
// different build.
func Restore(dir string, opts ...Option) (*Monitor, error) {
	cfg := config{policy: SMA}
	for _, opt := range opts {
		opt(&cfg)
	}
	if field := structural(cfg); field != "" {
		return nil, fmt.Errorf("topkmon: Restore takes its %s from the checkpoint; pass only runtime options such as WithClock", field)
	}
	st, auxBytes, err := stack.Restore(dir)
	if err != nil {
		return nil, err
	}
	aux := facadeAux{Policy: int(SMA)} // a lineage Build started directly records no policy
	if err := json.Unmarshal(auxBytes, &aux); err != nil {
		st.Mon.Close()
		return nil, fmt.Errorf("%w: facade state: %v", recovery.ErrCorrupt, err)
	}
	m := &Monitor{st: st, pipe: st.Pipe, policy: Policy(aux.Policy), clock: cfg.clock}
	// Resume tick stamping strictly after everything the recovered engine
	// has seen: the next stamped cycle gets a fresh timestamp and the
	// sequence counter continues from the last admitted tuple.
	clk := st.Guard.CurrentClock()
	if clk.HaveSeq {
		m.seq = clk.LastSeq
	}
	if clk.Started {
		m.nextTS = clk.Now + 1
	}
	return m, nil
}

// structural names the first checkpoint-recorded setting cfg changes from
// its default ("" when there is none): a stack.Config field, an engine
// option as Engine.<field>, or the default policy.
func structural(cfg config) string {
	if cfg.policy != SMA {
		return "Policy"
	}
	v := reflect.ValueOf(cfg.stack)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		name := v.Type().Field(i).Name
		if f.Kind() == reflect.Struct {
			for j := 0; j < f.NumField(); j++ {
				if !f.Field(j).IsZero() {
					return name + "." + f.Type().Field(j).Name
				}
			}
		}
		return name
	}
	return ""
}
