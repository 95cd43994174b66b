#include "core/item_memory.hh"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace hdham
{

ItemMemory::ItemMemory(std::size_t size, std::size_t dim,
                       std::uint64_t seed)
    : dimension(dim)
{
    Rng rng(seed);
    items.reserve(size);
    for (std::size_t i = 0; i < size; ++i)
        items.push_back(Hypervector::randomBalanced(dim, rng));
}

ItemMemory
ItemMemory::fromVectors(std::vector<Hypervector> seeds)
{
    if (seeds.empty())
        throw std::invalid_argument("ItemMemory::fromVectors: empty "
                                    "seed list");
    ItemMemory memory(seeds.front().dim());
    for (const Hypervector &hv : seeds) {
        if (hv.dim() != memory.dimension)
            throw std::invalid_argument("ItemMemory::fromVectors: "
                                        "dimension mismatch");
    }
    memory.items = std::move(seeds);
    return memory;
}

const Hypervector &
ItemMemory::operator[](std::size_t id) const
{
    assert(id < items.size());
    return items[id];
}

std::string
TextAlphabet::normalize(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text)
        out.push_back(charOf(symbolOf(c)));
    return out;
}

} // namespace hdham
