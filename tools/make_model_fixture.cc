/**
 * @file
 * Regenerate the committed hdham.model.v1 golden fixtures in
 * tests/data/ from the deterministic recipes in
 * tests/fixtures/model_fixture.hh. The sliced fixture
 * (testfix::slicedFixtureFile) is never regenerated: no writer emits
 * its layout, and the reader refuses it.
 *
 *   make_model_fixture OUTPUT_DIR
 *
 * Run only when *adding* fixtures for a new format version: the
 * committed files pin the v1 byte layout, and the golden test fails
 * -- by design -- if the writer's output drifts from them.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "fixtures/model_fixture.hh"

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: make_model_fixture OUTPUT_DIR\n");
        return 2;
    }
    const std::string dir = argv[1];
    for (const auto &spec : hdham::testfix::fixtureSpecs()) {
        const std::string path = dir + "/" + spec.file;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return 1;
        }
        hdham::testfix::writeFixture(out, spec);
        out.flush();
        if (!out) {
            std::fprintf(stderr, "write failed: %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
