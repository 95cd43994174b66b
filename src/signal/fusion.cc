#include "signal/fusion.hh"

#include <cassert>
#include <stdexcept>

#include "core/bundler.hh"

namespace hdham::signal
{

namespace
{

EmgConfig
templateConfig(const FusionConfig &cfg, std::size_t channels,
               std::uint64_t salt)
{
    EmgConfig tmpl;
    tmpl.numGestures = cfg.numActivities / 2;
    tmpl.channels = channels;
    tmpl.windowLength = cfg.windowLength;
    // The template corpus is only a signature provider; its own
    // train/test sets are not used.
    tmpl.trainPerGesture = 1;
    tmpl.testPerGesture = 1;
    tmpl.noiseSigma = cfg.noiseSigma;
    tmpl.seed = cfg.seed ^ salt;
    return tmpl;
}

} // namespace

FusionCorpus::FusionCorpus(const FusionConfig &config)
    : cfg(config),
      motionTemplates(
          templateConfig(cfg, cfg.motionChannels, 0x6d6f74ULL)),
      biosignalTemplates(
          templateConfig(cfg, cfg.biosignalChannels, 0x62696fULL))
{
    if (cfg.numActivities < 4 || cfg.numActivities % 2 != 0)
        throw std::invalid_argument("FusionCorpus: need an even "
                                    "number (>= 4) of activities");
    Rng rng(cfg.seed ^ 0x73616d706c6573ULL); // "samples"

    training.resize(cfg.numActivities);
    for (std::size_t a = 0; a < cfg.numActivities; ++a) {
        training[a].reserve(cfg.trainPerActivity);
        for (std::size_t i = 0; i < cfg.trainPerActivity; ++i)
            training[a].push_back(sample(a, rng));
    }
    tests.reserve(cfg.numActivities * cfg.testPerActivity);
    for (std::size_t a = 0; a < cfg.numActivities; ++a)
        for (std::size_t i = 0; i < cfg.testPerActivity; ++i)
            tests.push_back(sample(a, rng));
}

std::size_t
FusionCorpus::motionTemplateOf(std::size_t activity) const
{
    assert(activity < cfg.numActivities);
    // Activity pairs (2k, 2k+1) share a motion signature.
    return activity / 2;
}

std::size_t
FusionCorpus::biosignalTemplateOf(std::size_t activity) const
{
    assert(activity < cfg.numActivities);
    // Offset grouping so the (motion, biosignal) pair is unique
    // per activity while each biosignal signature is also shared.
    return activity % (cfg.numActivities / 2);
}

FusionSample
FusionCorpus::sample(std::size_t activity, Rng &rng) const
{
    FusionSample s;
    s.activity = activity;
    s.motion =
        motionTemplates.record(motionTemplateOf(activity), rng);
    s.biosignal = biosignalTemplates.record(
        biosignalTemplateOf(activity), rng);
    return s;
}

const std::vector<FusionSample> &
FusionCorpus::trainingSet(std::size_t activity) const
{
    assert(activity < training.size());
    return training[activity];
}

FusionPipeline::FusionPipeline(const FusionCorpus &corpus,
                               std::size_t dim, std::uint64_t seed)
    : numActivities(corpus.numActivities()),
      modalityIds(2, dim, seed ^ 0x6d6f64616c697479ULL),
      motionEnc(corpus.config().motionChannels,
                SpatioTemporalConfig{dim, 21, 3,
                                     seed ^ 0x656e632d6dULL}),
      biosignalEnc(corpus.config().biosignalChannels,
                   SpatioTemporalConfig{dim, 21, 3,
                                        seed ^ 0x656e632d62ULL}),
      fusedAm(dim),
      motionAm(dim),
      biosignalAm(dim)
{
    Rng rng(seed);

    // Train all three views.
    Bundler fused(dim), motion(dim), biosignal(dim);
    for (std::size_t a = 0; a < numActivities; ++a) {
        fused.clear();
        motion.clear();
        biosignal.clear();
        for (const FusionSample &s : corpus.trainingSet(a)) {
            const Hypervector m = motionEnc.encode(s.motion, rng);
            const Hypervector b =
                biosignalEnc.encode(s.biosignal, rng);
            fused.add(modalityIds[0] ^ m);
            fused.add(modalityIds[1] ^ b);
            motion.add(m);
            biosignal.add(b);
        }
        const std::string label = "activity" + std::to_string(a);
        fusedAm.store(fused.majority(rng), label);
        motionAm.store(motion.majority(rng), label);
        biosignalAm.store(biosignal.majority(rng), label);
    }

    // Encode the test set once per view.
    for (const FusionSample &s : corpus.testSet()) {
        fusedQueries.push_back(
            lang::LabeledQuery{encode(s, rng), s.activity});
        motionQueries.push_back(lang::LabeledQuery{
            motionEnc.encode(s.motion, rng), s.activity});
        biosignalQueries.push_back(lang::LabeledQuery{
            biosignalEnc.encode(s.biosignal, rng), s.activity});
    }
}

Hypervector
FusionPipeline::encode(const FusionSample &sample, Rng &rng) const
{
    Bundler fused(fusedAm.dim());
    fused.add(modalityIds[0] ^ motionEnc.encode(sample.motion, rng));
    fused.add(modalityIds[1] ^
              biosignalEnc.encode(sample.biosignal, rng));
    return fused.majority(rng);
}

lang::Evaluation
FusionPipeline::evaluateAgainst(
    const AssociativeMemory &am,
    const std::vector<lang::LabeledQuery> &queries) const
{
    std::vector<std::size_t> predictions;
    predictions.reserve(queries.size());
    for (const lang::LabeledQuery &query : queries)
        predictions.push_back(am.search(query.vector).classId);
    return lang::scorePredictions(queries, numActivities, predictions);
}

lang::Evaluation
FusionPipeline::evaluateFused() const
{
    return evaluateAgainst(fusedAm, fusedQueries);
}

lang::Evaluation
FusionPipeline::evaluateMotionOnly() const
{
    return evaluateAgainst(motionAm, motionQueries);
}

lang::Evaluation
FusionPipeline::evaluateBiosignalOnly() const
{
    return evaluateAgainst(biosignalAm, biosignalQueries);
}

} // namespace hdham::signal
