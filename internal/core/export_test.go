package core

// APXCandidates exposes APX-sum's candidate step to the external test
// package, which can import internal/difftest for its case corpus.
var APXCandidates = apxCandidates
