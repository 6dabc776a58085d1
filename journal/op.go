package journal

import "clockwork"

// Op is one control-plane mutation: Register, AddWorker, DrainWorker,
// FailWorker, Rebalance or Autoscale. Only this package can add one:
// each op needs a journal record and a case in Apply.
type Op interface {
	record() Record
}

// Register registers a catalogue model: one instance named Instance
// when Copies is 0, or Copies instances "Instance#k" when Copies > 0.
type Register struct {
	Instance string
	Zoo      string
	Copies   int
}

// AddWorker adds a worker.
type AddWorker struct{}

// DrainWorker drains worker ID.
type DrainWorker struct{ ID int }

// FailWorker fails worker ID.
type FailWorker struct{ ID int }

// Rebalance runs one rebalance pass.
type Rebalance struct{}

// Autoscale is one closed-loop decision that moved something: the
// admission window now in force, workers to add, the worker to drain
// (-1 for none) and whether to rebalance. Apply applies the worker
// actions; the caller owns the admission gate Window sets.
type Autoscale struct {
	Window     int
	AddWorkers int
	Drain      int
	Rebalance  bool
}

func (o Register) record() Record {
	return Record{Type: recRegister, Instance: o.Instance, Zoo: o.Zoo, Copies: o.Copies}
}
func (AddWorker) record() Record     { return Record{Type: recAddWorker} }
func (o DrainWorker) record() Record { return Record{Type: recDrainWorker, WorkerID: o.ID} }
func (o FailWorker) record() Record  { return Record{Type: recFailWorker, WorkerID: o.ID} }
func (Rebalance) record() Record     { return Record{Type: recRebalance} }
func (o Autoscale) record() Record {
	return Record{Type: recAutoscale, Window: o.Window, AddWorkers: o.AddWorkers, WorkerID: o.Drain, Rebal: o.Rebalance}
}

// op decodes a control-plane record; nil for any other record type.
func (r *Record) op() Op {
	switch r.Type {
	case recRegister:
		return Register{Instance: r.Instance, Zoo: r.Zoo, Copies: r.Copies}
	case recAddWorker:
		return AddWorker{}
	case recDrainWorker:
		return DrainWorker{ID: r.WorkerID}
	case recFailWorker:
		return FailWorker{ID: r.WorkerID}
	case recRebalance:
		return Rebalance{}
	case recAutoscale:
		return Autoscale{Window: r.Window, AddWorkers: r.AddWorkers, Drain: r.WorkerID, Rebalance: r.Rebal}
	}
	return nil
}

// Effect is what Apply did: the instances a Register created, the ID
// of the worker an AddWorker added, and the models a rebalance pass
// migrated.
type Effect struct {
	Instances  []string
	Worker     int
	Migrations int
}

// Apply records op to rec when rec is non-nil, then applies it to sys:
// the one place a control op becomes System calls. Recording first
// journals a failing op too (a duplicate name, a drained worker), and
// replay fails it identically. Engine-confined: the record is stamped
// with the engine's step and instant, so in live mode call it inside
// Live.Do.
func Apply(sys *clockwork.System, rec *Recorder, op Op) (e Effect, err error) {
	if rec != nil {
		rec.appendOp(op)
	}
	switch o := op.(type) {
	case Register:
		if o.Copies > 0 {
			e.Instances, err = sys.RegisterCopies(o.Instance, o.Zoo, o.Copies)
		} else if err = sys.RegisterModel(o.Instance, o.Zoo); err == nil {
			e.Instances = []string{o.Instance}
		}
	case AddWorker:
		e.Worker = sys.AddWorker()
	case DrainWorker:
		err = sys.DrainWorker(o.ID)
	case FailWorker:
		err = sys.FailWorker(o.ID)
	case Rebalance:
		e.Migrations = sys.Rebalance()
	case Autoscale:
		for range o.AddWorkers {
			sys.AddWorker()
		}
		if o.Drain >= 0 {
			err = sys.DrainWorker(o.Drain)
		}
		if o.Rebalance {
			e.Migrations = sys.Rebalance()
		}
	}
	return e, err
}
