// Umbrella header: the complete public API of fusion-fsm.
//
// Include this for quick experiments; larger builds should include the
// specific module headers (listed below by subsystem) to keep compile
// times honest.
#pragma once

// util — concurrency and support substrate
#include "util/contracts.hpp"
#include "util/dynamic_bitset.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

// fsm — machines
#include "fsm/alphabet.hpp"
#include "fsm/dfsm.hpp"
#include "fsm/isomorphism.hpp"
#include "fsm/machine_catalog.hpp"
#include "fsm/minimize.hpp"
#include "fsm/product.hpp"
#include "fsm/random_dfsm.hpp"
#include "fsm/serialize.hpp"

// partition — the closed partition algebra
#include "partition/closure.hpp"
#include "partition/lattice.hpp"
#include "partition/lower_cover.hpp"
#include "partition/meet_join.hpp"
#include "partition/partition.hpp"
#include "partition/quotient.hpp"

// fault — fault graphs and tolerance
#include "fault/fault_graph.hpp"
#include "fault/weakest_pairs.hpp"
#include "fault/tolerance.hpp"

// fusion — (f,m)-fusion theory and generators
#include "fusion/exhaustive.hpp"
#include "fusion/fusion.hpp"
#include "fusion/generator.hpp"
#include "fusion/minimality.hpp"
#include "fusion/order.hpp"
#include "fusion/relaxed.hpp"

// recovery — Algorithms 1 and 3, detection, deployment bundles
#include "recovery/bundle.hpp"
#include "recovery/detect.hpp"
#include "recovery/recovery.hpp"
#include "recovery/set_representation.hpp"

// replication — the classical baseline
#include "replication/replication.hpp"

// net — transport primitives under the wire backend
#include "net/health.hpp"
#include "net/line_channel.hpp"
#include "net/listener.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"

// sim — the distributed-system substrate and the serving stack
#include "sim/backend.hpp"
#include "sim/cluster.hpp"
#include "sim/event_log.hpp"
#include "sim/event_source.hpp"
#include "sim/fault_injector.hpp"
#include "sim/messages.hpp"
#include "sim/server.hpp"
#include "sim/system.hpp"
#include "sim/wire_backend.hpp"
