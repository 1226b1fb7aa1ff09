package main

import (
	"fmt"
	"time"

	"misusedetect/internal/rollout"
	"misusedetect/internal/wire"
)

// cmdCanary inspects a daemon's staged rollout ({"cmd":"canary"}) or
// force-decides the pending candidate (-promote / -rollback).
func cmdCanary(args []string) error {
	fs := newFlagSet("canary")
	addr := fs.String("addr", "127.0.0.1:7074", "misused daemon address")
	timeout := fs.Duration("timeout", 5*time.Second, "dial/read timeout")
	promote := fs.Bool("promote", false, "force-promote the pending candidate to serving")
	rollback := fs.Bool("rollback", false, "force-roll-back the pending candidate (quarantines its directory)")
	jsonOut := fs.Bool("json", false, "print the raw JSON reply line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *promote && *rollback {
		return fmt.Errorf("canary: -promote and -rollback are mutually exclusive")
	}
	cmd := "canary"
	switch {
	case *promote:
		cmd = "canary-promote"
	case *rollback:
		cmd = "canary-rollback"
	}
	var reply struct {
		wire.CanaryReply
		wire.CanaryVerdictReply
	}
	line, err := wire.Call(*addr, cmd, *timeout, &reply)
	if err != nil {
		return err
	}
	if *jsonOut {
		fmt.Println(string(line))
		return nil
	}
	if cmd != "canary" {
		if reply.Verdict == nil {
			return fmt.Errorf("canary: unexpected reply %q", line)
		}
		printVerdict(reply.Verdict)
		return nil
	}
	st := reply.Canary
	fmt.Printf("canary rollout at %s\n", *addr)
	fmt.Printf("  serving version:  %d\n", st.ServingVersion)
	if st.Active {
		fmt.Printf("  candidate:        version %d at fraction %.3f\n", st.CandidateVersion, st.Fraction)
		if st.CandidateDir != "" {
			fmt.Printf("  candidate dir:    %s\n", st.CandidateDir)
		}
	} else {
		fmt.Printf("  candidate:        none pending\n")
	}
	fmt.Printf("  min sessions/arm: %d\n", st.MinSessions)
	printArm("serving", st.Serving)
	printArm("canary", st.Canary)
	if st.LastVerdict != nil {
		fmt.Printf("  last verdict:     %s generation %d: %s\n",
			st.LastVerdict.Decision, st.LastVerdict.CandidateVersion, st.LastVerdict.Reason)
		if st.LastVerdict.QuarantinedDir != "" {
			fmt.Printf("  quarantined:      %s\n", st.LastVerdict.QuarantinedDir)
		}
	}
	return nil
}

func printArm(name string, a rollout.ArmReport) {
	mean := "-"
	if a.LikelihoodMean >= 0 {
		mean = fmt.Sprintf("%.4f", a.LikelihoodMean)
	}
	fmt.Printf("  %-8s arm:      %d sessions, %d alarmed (rate %.3f), mean likelihood %s\n",
		name, a.Sessions, a.AlarmedSessions, a.AlarmRate, mean)
}

func printVerdict(v *rollout.Verdict) {
	fmt.Printf("%s: candidate generation %d (serving %d)\n", v.Decision, v.CandidateVersion, v.ServingVersion)
	fmt.Printf("  reason: %s\n", v.Reason)
	fmt.Printf("  serving arm: %d sessions, alarm rate %.3f; canary arm: %d sessions, alarm rate %.3f\n",
		v.Serving.Sessions, v.Serving.AlarmRate, v.Canary.Sessions, v.Canary.AlarmRate)
	if v.QuarantinedDir != "" {
		fmt.Printf("  quarantined: %s (verdict recorded as %s)\n", v.QuarantinedDir, rollout.VerdictFile)
	}
}
