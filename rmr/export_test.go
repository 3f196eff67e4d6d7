package rmr

// Test-only access to the replay prediction (see predict in visited.go).

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

// The prediction kinds PredictAudit.Kind counts.
const (
	KindFirstPick  = kindFirst
	KindSecondPick = kindSecond
	KindBoundLeaf  = kindLeaf
)

// Counts returns the predictions the check mode compared with their
// replays and how many of them disagreed, over every kind.
func (au *predictAudit) Counts() (checked, mismatched int64) {
	for k := range au.checked {
		c, m := au.Kind(k)
		checked += c
		mismatched += m
	}
	return checked, mismatched
}

// Kind returns Counts for one prediction kind.
func (au *predictAudit) Kind(kind int) (checked, mismatched int64) {
	return au.checked[kind].Load(), au.mismatched[kind].Load()
}
