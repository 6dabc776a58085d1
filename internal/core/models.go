package core

import "clockwork/internal/action"

// ModelID is a model instance's dense identifier (see action.ModelID).
type ModelID = action.ModelID

// modelTable interns model instance names: names at the edges, IDs
// inside. A name gets its ID the first time it is registered and keeps
// it for the table's lifetime — through unregistration and
// re-registration — so an ID held by a request on the wire, a page-cache
// slot, a profile block or a metrics row can never come to mean a
// different name. ids is the only map keyed by a model's name in the
// serving path; a request's name goes through it once, at submission,
// and everything downstream indexes slices by the ID.
//
// One table serves a whole cluster (the controller and the cluster
// layer share it); a controller built on its own gets a private one.
type modelTable struct {
	ids map[string]ModelID
	// live holds, by ID, the name's current registration, or nil while
	// the name is not registered. live[0] stays nil: ID 0 means "not resolved".
	live []*ModelInfo

	// onResolve, when non-nil, observes every by-name resolution; tests
	// install it to hold the serving path to one per request.
	onResolve func()
}

func newModelTable() *modelTable {
	return &modelTable{ids: make(map[string]ModelID), live: make([]*ModelInfo, 1)}
}

// resolve returns name's ID, 0 if the name was never registered. It is
// the one by-name lookup.
func (t *modelTable) resolve(name string) ModelID {
	if t.onResolve != nil {
		t.onResolve()
	}
	return t.ids[name]
}

// intern returns name's ID, assigning the next one on first sight.
func (t *modelTable) intern(name string) ModelID {
	id := t.resolve(name)
	if id == 0 {
		id = ModelID(len(t.live))
		t.live = append(t.live, nil)
		t.ids[name] = id
	}
	return id
}

// lookup returns name's current registration, nil when it has none.
func (t *modelTable) lookup(name string) *ModelInfo { return t.live[t.resolve(name)] }
