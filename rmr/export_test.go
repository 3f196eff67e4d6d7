package rmr

// Test-only access to the replay prediction (see walk in visited.go).

// SetPredict turns e's replay prediction on (the default) or off.
func SetPredict(e *Explorer, on bool) { e.noPredict = !on }

// AuditPredictions runs e's prediction in check mode and returns the
// audit: every predicted task is replayed and compared with its
// prediction. perturb, when non-nil, alters each predicted operation
// result, seeding a wrong predictor.
func AuditPredictions(e *Explorer, perturb func(op Op, res uint64) uint64) *PredictAudit {
	e.audit = &predictAudit{perturb: perturb}
	return e.audit
}

// PredictAudit is the check mode's tally.
type PredictAudit = predictAudit

// AuditSteps is the number of PredictAudit.Step buckets.
const AuditSteps = auditSteps

// Counts returns the predicted steps the check mode compared with their
// replays and how many of them disagreed, at every depth.
func (au *predictAudit) Counts() (checked, mismatched int64) {
	for k := range au.checked {
		c, m := au.Step(k)
		checked += c
		mismatched += m
	}
	return checked, mismatched
}

// Step returns Counts for the steps k below their branch (the first free
// pick is one step below it); bucket AuditSteps-1 also holds every deeper
// step.
func (au *predictAudit) Step(k int) (checked, mismatched int64) {
	return au.checked[k].Load(), au.mismatched[k].Load()
}

// Launches returns how many checked steps launched a process that had not
// started yet.
func (au *predictAudit) Launches() int64 { return au.launches.Load() }

// Signals returns how many checked steps set abort flags.
func (au *predictAudit) Signals() int64 { return au.signals.Load() }
