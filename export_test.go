package zipline

// SensorLikeData exposes the shared compressible-workload generator
// (stream_test.go) to the external zipline_test package so the
// benchmarks exercise the same workload shape as the tests.
var SensorLikeData = sensorLikeData
