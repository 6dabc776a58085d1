package journal

import "clockwork"

// Op is one control-plane mutation the journal records: Register,
// AddWorker, DrainWorker, FailWorker or Autoscale (Rebalance survives
// only so that older journals decode; it applies as nothing). Only this
// package can add one: each op needs a record type, an encoding and a
// case in Apply.
type Op interface {
	recType() byte
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

// Rebalance is the record of a cross-shard rebalance pass, written by
// builds that had a rebalancer. It decodes, and applies as a no-op.
type Rebalance struct{}

// Autoscale is one closed-loop decision that moved something: the
// admission window now in force, workers to add and the worker to drain
// (-1 for none). Apply applies the worker actions; the caller owns the
// admission gate Window sets. Rebalance is the rebalance bit older
// builds set; it is carried for the record layout and applies as
// nothing.
type Autoscale struct {
	Window     int
	AddWorkers int
	Drain      int
	Rebalance  bool
}

func (Register) recType() byte    { return recRegister }
func (AddWorker) recType() byte   { return recAddWorker }
func (DrainWorker) recType() byte { return recDrainWorker }
func (FailWorker) recType() byte  { return recFailWorker }
func (Rebalance) recType() byte   { return recRebalance }
func (Autoscale) recType() byte   { return recAutoscale }

// Effect is what Apply did: the instances a Register created and the
// ID of the worker an AddWorker added.
type Effect struct {
	Instances []string
	Worker    int
}

// Apply records op to rec when rec is non-nil, then applies it to sys:
// the one place a control op becomes System calls, and the one way a
// mutation other than an inference or a snapshot is recorded.
// Recording first journals a failing op too (a duplicate name, a
// drained worker), and replay fails it identically. Engine-confined:
// the record is stamped with the engine's step count and instant, so
// in live mode call it inside Live.Do, which runs it between steps.
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
	case Autoscale:
		for range o.AddWorkers {
			sys.AddWorker()
		}
		if o.Drain >= 0 {
			err = sys.DrainWorker(o.Drain)
		}
	}
	return e, err
}
