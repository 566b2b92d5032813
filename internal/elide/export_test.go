package elide

// DiffAnalyze exposes the reference comparison to the external tests.
var DiffAnalyze = diffAnalyze
