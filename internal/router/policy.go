package router

import "repro/internal/bgp"

// Action is one step of an import or export policy. It may mutate the
// attribute set in place and reports whether processing should continue;
// returning false rejects the route.
type Action interface {
	Apply(attrs *bgp.PathAttrs) bool
}

// Policy is an ordered action chain. A nil Policy accepts unchanged.
type Policy []Action

// Run applies the chain, reporting whether the route is accepted.
func (p Policy) Run(attrs *bgp.PathAttrs) bool {
	for _, a := range p {
		if !a.Apply(attrs) {
			return false
		}
	}
	return true
}

type addCommunity bgp.Community

func (c addCommunity) Apply(attrs *bgp.PathAttrs) bool {
	attrs.Communities = attrs.Communities.With(bgp.Community(c))
	return true
}

// AddCommunity tags routes with c — the geo/ingress tagging of Exp2.
func AddCommunity(c bgp.Community) Action { return addCommunity(c) }

type stripCommunities struct{}

func (stripCommunities) Apply(attrs *bgp.PathAttrs) bool {
	attrs.Communities = nil
	return true
}

// StripAllCommunities removes every community — the cleaning of Exp3/Exp4.
func StripAllCommunities() Action { return stripCommunities{} }
