package rmr

// Test-only access to the visited-hit prediction (see predict in
// visited.go).

// SetPredict turns e's visited-hit prediction on (the default) or off.
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

// Counts returns the predicted tasks the check mode replayed and how many
// of them disagreed with their prediction.
func (au *predictAudit) Counts() (checked, mismatched int64) {
	return au.checked.Load(), au.mismatched.Load()
}
