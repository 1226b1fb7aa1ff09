// Package logsim simulates the administrative portal of the paper's use
// case: a login/security server whose interface exposes roughly 300 named
// actions, used by about 1,400 operators over a 31-day recording window,
// producing about 15,000 sessions with an average length of 15 actions, a
// 98th-percentile length under ~91 and a maximum above 800.
//
// The proprietary DiSIEM/Amadeus dataset is not available, so this package
// stands in for it: sessions are generated from 13 latent behavior
// profiles (user unlocking, role modification, office editing, ...)
// realized as routine-based Markov processes. The profiles
// provide exactly the latent structure the paper's pipeline is designed to
// recover, plus ground-truth cluster labels that make the "cluster is
// known" experiments well defined.
package logsim

import "fmt"

// Entities administered through the portal. Crossing them with the verbs
// below yields the bulk of the ~300-action vocabulary.
var entities = []string{
	"User", "Office", "Role", "Profile", "Queue", "Report", "TFARule",
	"Group", "Policy", "Certificate", "Token", "Agent", "Terminal",
	"Alert", "Contract",
}

// Verbs applicable to portal entities.
var verbs = []string{
	"Search", "Display", "Create", "Modify", "Delete", "WarningDelete",
	"List", "Export", "Validate", "Approve", "Reject", "Assign",
	"Revoke", "Lock", "Unlock", "Audit", "Clone", "Archive", "Restore",
}

// specialActions are actions named verbatim in the paper plus portal
// chrome (login, navigation) that every profile uses.
var specialActions = []string{
	"ActionSearchUsr",
	"ActionUnLockUser",
	"ActionUnLockDisplayedUser",
	"ActionResetPwdUnlock",
	"ActionResetPwd",
	"ActionDisplayOneOffice",
	"ActionDisplayDirectTFARule",
	"ActionLogin",
	"ActionLogout",
	"ActionHome",
	"ActionHelp",
	"ActionNextPage",
	"ActionPrevPage",
	"ActionRefreshView",
	"ActionOpenDashboard",
}

// ActionNames returns the full simulated action vocabulary, deterministic
// and duplicate-free: the verb x entity grid plus the special actions
// (15*19 + 15 = 300 actions, matching the "almost 300 different actions"
// of the paper).
func ActionNames() []string {
	names := make([]string, 0, len(entities)*len(verbs)+len(specialActions))
	for _, e := range entities {
		for _, v := range verbs {
			names = append(names, fmt.Sprintf("Action%s%s", v, e))
		}
	}
	names = append(names, specialActions...)
	return names
}
