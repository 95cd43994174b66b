/**
 * @file
 * The one model-open path every consumer shares.
 *
 * `hdham classify/info/load/save` and the resident hdham_server all
 * need the same sequence: mmap + validate an hdham.model.v1 file and
 * report provenance and mapping residency into a metrics registry.
 * This module owns that sequence so the CLI and the server cannot
 * drift apart.
 *
 * A LoadedModel is the mutable-configuration stage of a model's
 * life: callers may attach metrics to the mapped store.
 * Serving freezes it: intoSnapshot() moves the opened view into an
 * immutable snapshot::MemorySnapshot without reopening or copying
 * the class store.
 */

#ifndef HDHAM_CORE_MODEL_LOADER_HH
#define HDHAM_CORE_MODEL_LOADER_HH

#include <memory>
#include <string>
#include <utility>

#include "core/assoc_memory.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/snapshot.hh"

namespace hdham::modelload
{

/**
 * An hdham.model.v1 file, mmap'ed and validated, whose class store
 * is served zero-copy in place (a file in a legacy sliced or sharded
 * layout: from the row-major copy the open made). memory() is
 * mutable so callers can attach metrics; the mapped store still
 * rejects mutation of the rows.
 */
class LoadedModel
{
  public:
    /**
     * Map and validate @p path (ModelView's checks; @p opts can skip
     * the checksum pass).
     * @throws std::runtime_error on malformed input.
     */
    static LoadedModel
    open(const std::string &path,
         const modelfile::ModelView::Options &opts = {});

    /** The mapped memory, queried zero-copy in place. */
    AssociativeMemory &memory() { return view.memory(); }
    const AssociativeMemory &memory() const { return view.memory(); }

    /** The mapped view (never null). */
    const modelfile::ModelView *modelView() const { return &view; }

    /**
     * Record model provenance in the metrics "info" map: model.path,
     * model.format, model.version and model.checksum.
     */
    void recordInfo(metrics::Registry &registry) const;

    /**
     * Freeze the opened model into an immutable MemorySnapshot,
     * consuming this object: the view moves in and the store stays
     * zero-copy. This is how the server turns the shared open path
     * into its first published snapshot.
     */
    std::unique_ptr<snapshot::MemorySnapshot>
    intoSnapshot(const snapshot::MemorySnapshot::Options &opts = {}) &&;

  private:
    explicit LoadedModel(modelfile::ModelView &&mapped)
        : view(std::move(mapped))
    {
    }

    modelfile::ModelView view;
};

/**
 * Record the mmap residency gauges of @p view (model.mapped_bytes /
 * model.resident_bytes -- how much of the file the queries so far
 * actually pulled into memory) into @p registry.
 */
void recordResidency(metrics::Registry &registry,
                     const modelfile::ModelView &view);

} // namespace hdham::modelload

#endif // HDHAM_CORE_MODEL_LOADER_HH
