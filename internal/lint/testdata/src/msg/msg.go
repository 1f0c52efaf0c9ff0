// Package msg is a hermetic stand-in for filaments/internal/msg's
// explicit-messaging endpoint, for the tagspace fixture.
package msg

import "kernel"

type Tag int32

type Endpoint struct{}

func (m *Endpoint) Send(dst kernel.NodeID, tag Tag, payload any, size int) {}

func (m *Endpoint) Broadcast(tag Tag, payload any, size int) {}
