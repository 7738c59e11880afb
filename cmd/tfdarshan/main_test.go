package main

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		cfg  experiments.Config
		args []string
		ok   bool
	}{
		{name: "defaults", argv: []string{"fig7a"}, cfg: experiments.Config{Scale: 1, Parallel: 1}, args: []string{"fig7a"}, ok: true},
		{
			name: "every flag before the ids",
			argv: []string{"-scale", "0.05", "-seed", "3", "-verify", "-ranks", "4", "-parallel", "2", "ranks", "tune"},
			cfg:  experiments.Config{Scale: 0.05, Seed: 3, VerifyContent: true, Ranks: 4, Parallel: 2},
			args: []string{"ranks", "tune"}, ok: true,
		},
		{name: "parallel 0 is one worker per core", argv: []string{"-parallel", "0", "all"}, cfg: experiments.Config{Scale: 1, Parallel: -1}, args: []string{"all"}, ok: true},
		{name: "ranks at the node limit", argv: []string{"-ranks", "64", "ranks"}, cfg: experiments.Config{Scale: 1, Ranks: 64, Parallel: 1}, args: []string{"ranks"}, ok: true},
		{name: "ranks past the node limit", argv: []string{"-scale", "0.02", "-ranks", "65", "ranks"}},
		{name: "negative ranks", argv: []string{"-ranks", "-1", "ranks"}},
		{name: "zero scale", argv: []string{"-scale", "0", "fig7a"}},
		{name: "negative scale", argv: []string{"-scale", "-0.5", "fig7a"}},
		{name: "NaN scale", argv: []string{"-scale", "NaN", "fig7a"}},
		{name: "infinite scale", argv: []string{"-scale", "+Inf", "fig7a"}},
		{name: "unknown flag", argv: []string{"-tune", "fig7a"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, outDir, args, err := parseArgs("run", tc.argv, io.Discard)
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok %v", err, tc.ok)
			}
			if !tc.ok {
				return
			}
			if !reflect.DeepEqual(cfg, tc.cfg) || !reflect.DeepEqual(args, tc.args) || outDir != "." {
				t.Fatalf("got %+v %q %q, want %+v %q \".\"", cfg, args, outDir, tc.cfg, tc.args)
			}
		})
	}
}
