package perceptron

// Hooks for the external benchmark package.

// OldFit is the dense reference fit the benchmark's baseline arm runs.
var OldFit = oldFit
