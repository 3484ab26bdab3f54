#ifndef XSDF_FUZZ_HARNESSES_H_
#define XSDF_FUZZ_HARNESSES_H_

#include <cstddef>
#include <cstdint>

/// The fuzzing oracles, one per target. Each consumes one flat input
/// buffer and either returns normally or aborts the process on an
/// oracle violation (a crash under libFuzzer, a test failure under the
/// standalone driver and fuzz_regression_test). They live in a plain
/// library, separate from the LLVMFuzzerTestOneInput wrappers, so the
/// exact same code runs under libFuzzer, under the gcc standalone
/// replay driver, and inside plain ctest replaying the checked-in
/// regression corpus.
namespace xsdf::fuzz {

/// xml::Parse under fuzz limits; accepted documents must round-trip
/// (serialize -> reparse -> structurally equal, serialization a fixed
/// point). core::BuildTreeStreaming must accept exactly what xml::Parse
/// accepts, and build a tree that passes Validate() and equals the DOM
/// oracle of tests/labeled_tree_oracle.h node for node and id for id.
void DriveXmlParser(const uint8_t* data, size_t size);

/// wordnet::ParseWndb over a "%%file" container (see
/// propgen::UnpackWndbContainer); accepted networks must re-serialize,
/// and the rewrite must be a parse/write fixed point.
void DriveWndbParser(const uint8_t* data, size_t size);

/// LabeledTree construction and query surface: first byte selects
/// parse options and include_values, the rest is XML; the streaming
/// build is checked as in DriveXmlParser, and every query on the tree
/// (LCA, distance, rings, paths) must terminate.
void DriveLabeledTree(const uint8_t* data, size_t size);

/// snapshot::LoadNetworkSnapshotFromBuffer over an 8-aligned copy of
/// the input: every rejection must carry a message, and an accepted
/// network must survive its full read surface (ancestors, glosses,
/// senses, taxonomy queries) and re-snapshot into bytes the loader
/// accepts again.
void DriveSnapshotLoader(const uint8_t* data, size_t size);

}  // namespace xsdf::fuzz

#endif  // XSDF_FUZZ_HARNESSES_H_
