/**
 * @file
 * Shared golden-fixture helper. Every golden in this suite is a
 * writer's output compared byte for byte with a file under
 * tests/data/; nothing is parsed back. The helper owns the data
 * directory (the build embeds VITCOD_TEST_DATA_DIR), the
 * --update-goldens flag, the rewrite in update mode and the
 * comparison with its failure message. A golden binary ends with
 *
 *     int main(int argc, char **argv)
 *     { return vitcod::test::goldenMain(argc, argv); }
 *
 * and regenerates its fixtures after an intentional change with
 *
 *     <binary> --update-goldens
 *
 * which rewrites the files in the source tree and then re-runs the
 * comparison against them.
 */

#ifndef VITCOD_TESTS_SUPPORT_GOLDEN_H
#define VITCOD_TESTS_SUPPORT_GOLDEN_H

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>

namespace vitcod::test {

/** Set by goldenMain() when the binary got --update-goldens. */
inline bool &
updateGoldens()
{
    static bool on = false;
    return on;
}

/**
 * Expect @p got to equal fixture @p name byte for byte; in update
 * mode write @p got there first. A mismatch reports the first line
 * that differs, not both files.
 */
inline void
expectGolden(const std::string &got, const std::string &name)
{
    const std::string path =
        std::string(VITCOD_TEST_DATA_DIR) + "/" + name;
    if (updateGoldens()) {
        std::ofstream out(path, std::ios::binary);
        out << got;
        ASSERT_TRUE(out) << "cannot write " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (generate with --update-goldens)";
    const std::string want{std::istreambuf_iterator<char>(in), {}};
    if (got == want)
        return;

    const size_t at = static_cast<size_t>(
        std::mismatch(got.begin(), got.end(), want.begin(), want.end())
            .first -
        got.begin());
    // Start of the line holding byte `at` (npos + 1 == 0: line 1).
    const size_t begin = got.substr(0, at).rfind('\n') + 1;
    auto lineAt = [begin](const std::string &s) {
        return s.substr(begin, s.find('\n', begin) - begin);
    };
    ADD_FAILURE() << path << " differs from the writer's output at line "
                  << 1 + std::count(got.begin(), got.begin() + begin,
                                    '\n')
                  << " (" << want.size() << " bytes checked in, "
                  << got.size() << " written)\n  want: " << lineAt(want)
                  << "\n  got:  " << lineAt(got)
                  << "\n(regenerate with --update-goldens if "
                     "intentional)";
}

/** gtest main that also takes --update-goldens. */
inline int
goldenMain(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--update-goldens")
            updateGoldens() = true;
    return RUN_ALL_TESTS();
}

} // namespace vitcod::test

#endif // VITCOD_TESTS_SUPPORT_GOLDEN_H
