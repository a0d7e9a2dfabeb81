package serve_test

import (
	"reflect"
	"testing"

	"repro/internal/serve"
)

// The serve codecs face the network: a shard decodes every /v1/state
// body a client POSTs (CSQ1) and a coordinator every envelope a shard
// answers (CSE3). Fuzzing them pins two things. The decoder never
// panics. What it accepts re-encodes to bytes that decode to an equal
// value, so nothing a decode lets through is lost or altered on the way
// back out.

// FuzzDecodeQuerySpec fuzzes the CSQ1 request decoder.
func FuzzDecodeQuerySpec(f *testing.F) {
	for _, spec := range codecSpecs() {
		f.Add(serve.AppendQuerySpec(nil, spec))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		spec, err := serve.DecodeQuerySpec(b)
		if err != nil {
			return
		}
		again, err := serve.DecodeQuerySpec(serve.AppendQuerySpec(nil, spec))
		if err != nil {
			t.Fatalf("re-encoded spec %+v does not decode: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("spec changed across a re-encode:\n got %+v\nwant %+v", again, spec)
		}
	})
}

// FuzzDecodeStateEnvelope fuzzes the CSE3 response decoder.
func FuzzDecodeStateEnvelope(f *testing.F) {
	for _, env := range codecEnvelopes() {
		f.Add(serve.AppendStateEnvelope(nil, env))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := serve.DecodeStateEnvelope(b)
		if err != nil {
			return
		}
		again, err := serve.DecodeStateEnvelope(serve.AppendStateEnvelope(nil, env))
		if err != nil {
			t.Fatalf("re-encoded envelope %+v does not decode: %v", env, err)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("envelope changed across a re-encode:\n got %+v\nwant %+v", again, env)
		}
	})
}
