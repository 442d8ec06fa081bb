package shard

import (
	"fmt"

	"repro/internal/extract"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/uncertain"
)

// Integrator is the sharded integration sink for the coordinator's
// concurrent pipeline: one integrate.Service per shard, each bound to
// that shard's database. Every lane keeps the unsharded pipeline's
// single-writer invariant — all writes to one shard happen on one lane
// goroutine, so the probabilistic merge path needs no cross-worker
// coordination — while different lanes commit batches and group-ack in
// parallel. Source-trust feedback stays global (the one trust model is
// internally synchronised), so a source's reliability is learned across
// shards exactly as in the single-store system.
type Integrator struct {
	store *Store
	kb    *kb.KB
	svcs  []*integrate.Service
}

// NewIntegrator builds one integration service per shard of the store,
// all feeding the one source-trust model.
func NewIntegrator(k *kb.KB, trust *uncertain.TrustModel, store *Store) (*Integrator, error) {
	if k == nil || trust == nil || store == nil {
		return nil, fmt.Errorf("shard: nil dependency")
	}
	svcs := make([]*integrate.Service, store.NumShards())
	for i := range svcs {
		svc, err := integrate.NewService(k, trust, store.Shard(i))
		if err != nil {
			return nil, err
		}
		svcs[i] = svc
	}
	return &Integrator{store: store, kb: k, svcs: svcs}, nil
}

// Lanes returns the number of independent integration lanes (= shards).
func (in *Integrator) Lanes() int { return len(in.svcs) }

// Services exposes the per-shard integration services, for sequential
// per-shard work like temporal decay.
func (in *Integrator) Services() []*integrate.Service { return in.svcs }

// Route assigns one message's template group to a lane. The group stays
// together (preserving the pipeline's per-message ordering invariant)
// and is routed by its first template — the resolved location when one
// exists, else the domain key field, the same identity duplicate
// detection matches by, so all reports about an entity meet in one
// shard. A message mentioning entities from several routing cells
// therefore places its secondary entities on the primary's shard, and a
// later single-entity report about one of them can miss that record and
// insert anew — the price of keeping a message's templates atomic on
// one lane rather than splitting its ordering and error semantics
// across shards. Messages with no templates (requests) route to lane 0;
// the coordinator spreads their group-acks across lanes itself.
func (in *Integrator) Route(tpls []extract.Template) int {
	for _, tpl := range tpls {
		key := ""
		if d, ok := in.kb.Domain(tpl.Domain); ok {
			key = tpl.Fields[d.KeyField].Text
		}
		return in.store.router.Route(tpl.Location, key)
	}
	return 0
}

// IntegrateGroups integrates several messages' template groups on one
// lane as a single amortized batch against that lane's shard; the
// shard's commit observer hears each write it made. The caller must
// serialise calls per lane (the coordinator runs one goroutine per
// lane); calls on different lanes run concurrently.
func (in *Integrator) IntegrateGroups(lane int, groups [][]extract.Template) [][]integrate.BatchResult {
	return in.svcs[lane].IntegrateGroups(groups)
}
