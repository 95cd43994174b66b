#include "core/model_loader.hh"

#include <cstdio>
#include <utility>

#include "core/perf_counters.hh"

namespace hdham::modelload
{

LoadedModel
LoadedModel::open(const std::string &path,
                  const modelfile::ModelView::Options &opts)
{
    return LoadedModel(modelfile::ModelView(path, opts));
}

void
LoadedModel::recordInfo(metrics::Registry &registry) const
{
    registry.setInfo("model.path", view.path());
    registry.setInfo("model.format", "hdham.model.v1");
    registry.setInfo("model.version", std::to_string(view.version()));
    char checksum[16];
    std::snprintf(checksum, sizeof(checksum), "%08x", view.checksum());
    registry.setInfo("model.checksum", checksum);
}

void
recordResidency(metrics::Registry &registry,
                const modelfile::ModelView &view)
{
    const perf::Residency res =
        perf::residency(view.mapBase(), view.fileSize());
    registry.setGauge("model.mapped_bytes",
                      static_cast<double>(res.mappedBytes));
    registry.setGauge("model.resident_bytes",
                      static_cast<double>(res.residentBytes));
}

std::unique_ptr<snapshot::MemorySnapshot>
LoadedModel::intoSnapshot(metrics::QueryMetrics *sink) &&
{
    return snapshot::MemorySnapshot::fromView(std::move(view), sink);
}

} // namespace hdham::modelload
