// SHA-1 against FIPS 180-1 / RFC 3174 test vectors, known answers at
// every length across the padding boundaries (on both compression
// blocks), incremental hashing and digest utilities.
#include "src/util/sha1.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace dpc {
namespace {

// Byte i of the known-answer message is (31 * i + 7) mod 256.
std::string KatMessage(size_t len) {
  std::string m(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    m[i] = static_cast<char>((31 * i + 7) & 0xff);
  }
  return m;
}

// SHA-1 of KatMessage(n) for n = 0..200, generated once with Python's
// hashlib:
//   msg = bytes((i * 31 + 7) & 0xff for i in range(200))
//   [hashlib.sha1(msg[:n]).hexdigest() for n in range(201)]
// The lengths cover the one-block/two-block padding split (55/56), whole
// blocks (64, 128, 192) and every tail length in between.
constexpr const char* kKatDigests[] = {
    "da39a3ee5e6b4b0d3255bfef95601890afd80709",  // 0
    "5d1be7e9dda1ee8896be5b7e34a85ee16452a7b4",  // 1
    "7878ac025cfe0384191ff21ebb1627fd25f8a60c",  // 2
    "d2df16b976a43628c63ea246436fccf6d7635d09",  // 3
    "d4f9ceaade7da644940e6e48e5f6f3df890012e5",  // 4
    "30b0747dfbd07a32d9c8d1dd980fa3715c61705d",  // 5
    "0e86f0b0df735206bc8c63c98ece2615752a583a",  // 6
    "7b5fdb60a909101741efaccfcf4623768ed8c772",  // 7
    "090a21896cc276ea75ecae78af863a34cb135e1e",  // 8
    "9750943838c5a41ce8324080d24c1c83b5d1ddae",  // 9
    "975fa4a481ddb865543aa46b4215abce0867415e",  // 10
    "ee99d55549e856af7d230f17aeab852297174f6f",  // 11
    "527c9aac039e4100422ef17c4c31439fcd2ed067",  // 12
    "07befd60125f9d2be5d1cc5c78eb1307af0a7f98",  // 13
    "139710c70c7560646711ee1f9fee2b75ef959c3e",  // 14
    "4508ec78db0dec110697f0a89f3fea668c45c1e6",  // 15
    "5884f1f093c6dc6a7df8dab75d43d5748c6dd583",  // 16
    "0de0ccd6c9688fc89864747b6e86b924294c6838",  // 17
    "96e3d5678470c65732139e7258e0fbe9bded4954",  // 18
    "2def2581a20f472ae671840e4510efc76a45bd75",  // 19
    "6adb00acc942e8f09009d3edefb763df7046d6e4",  // 20
    "8ed8c70c44cd332747e115c148e202be6a5ac11f",  // 21
    "52fab989df29c762c730822e5b4f3e581fa83538",  // 22
    "0a479e663a8aa605af3c940d34473fc6a9f608af",  // 23
    "9781f9c5e30ee04d7e34f3b67270438fbb0e8cab",  // 24
    "19ff4253e8faa698d1bd4e7860da45f38df1aee5",  // 25
    "ddf4e79df3a624427b473b43d0f762a9128ee0b1",  // 26
    "282d5c7ba20281c5862c5dfec06ac09b02bc9028",  // 27
    "0545246c1176ec07a5c76da77dc0b47d658bd58c",  // 28
    "2d77de3600a1a02c27f113247055a1288f85f21e",  // 29
    "a8e474f565ca3ed1c6c5dc8b8ddecb52e25f2ee3",  // 30
    "8a3cfab36a8e4e5510d5800dd0063725f29c614f",  // 31
    "4a9f58da1bac35a4d50e87dc0f9e49f3a740192f",  // 32
    "b28afc2dfa3c4884e18f7c7d943dfad7647a389b",  // 33
    "77260e68115b3238848446189d3e8058f82a08ea",  // 34
    "64e36d9226e117d413fbbc9b0d2506c6e6588a1e",  // 35
    "cc4b77f45d09f88399625712a877e8c7ddefcede",  // 36
    "4aba15b96465339c44cd4c633b0f88f889298d38",  // 37
    "6dae0fbb08600217dc4d3a572506da98b5259237",  // 38
    "dbd96a88971e828294e76676c6cc7b7c8d5dd705",  // 39
    "50ece239fb3daf7330821cc85d2bae03fcb27fa3",  // 40
    "e59d729c6e8445387de15ce274af9a65f9751557",  // 41
    "4deacbbf65843c9bb338c266c3e291f70ead30c3",  // 42
    "815ef303fdb28e94299b6fcf3efa8d7f469b2c8f",  // 43
    "b66b61cf262d2a8926c28bdcd33fe66892bd134e",  // 44
    "177d0ee82815c1d1e83b6d0d923e47cc4ef9ca03",  // 45
    "131814fd29a1b2d86ef58667156f102ab8d3af4b",  // 46
    "fabb661be319d4ed390cf5e23edb7b680a4ee663",  // 47
    "0796640c41bebef2c7920f1015483e8e45a600c3",  // 48
    "b428ec560cf367cb4386371aa88c2c55ae291a12",  // 49
    "7f4aa52203322f756b073b2802277d0add9bdd87",  // 50
    "e9f34b4f49c516a758f2283cb5b6528b10d07770",  // 51
    "4962b732ea68858be5ccd40469422cf32dd5d7b7",  // 52
    "9b13b43b467c30af032111a01964cbfa91c22f12",  // 53
    "d55036939dd1f1b82217b436fd60b32b5d015ab1",  // 54
    "749bbefb28edc4638b28b2b9a9e03ab9a4032b90",  // 55
    "a5b6e9c29d201c774753ff8e7fb64931656f5e63",  // 56
    "eb0737bed5451790722b2df351829ce117e3d9dd",  // 57
    "6f139fad1ae8ba7233bf48be73eed09d469ca735",  // 58
    "150327206b90a9129013cebce50ccfcbae9cd53d",  // 59
    "86ea3d4e8c9a086ee3d01af2c614cd463e3aa969",  // 60
    "e38613ee100936fadbff7cedd2ef467868d79032",  // 61
    "0c7a70093fd6a9d8c0ee69571185f7a3334d5f9a",  // 62
    "d1a454409359fc372b4d22b3cea6488d6ba1be00",  // 63
    "39a0d8b645ad85f1f976731ed112ac9455e28b78",  // 64
    "d0c96e18890114a14716e9686528d2e3fdba8d9e",  // 65
    "92dd5fd255e87de53cf6a7771cbb1130f52ea24b",  // 66
    "906f093cacd2ce78b8496c3bed7d6bacdd92ea0c",  // 67
    "d8cf76c08d523b04919a72ed459c111a370b02ce",  // 68
    "5c4b40e6fa54508cc31fe6de86f4cb2a66bd5e53",  // 69
    "e5b80b9ab19552e389496fca5dff8f27aca7f240",  // 70
    "64aa38cd51d7f21e8e1a80de8112dd0658dd63d8",  // 71
    "0fc775c234d6c8448a3678e209c1b13aef9287e9",  // 72
    "27a2a1fea010cf2c1108e5dd4bdba043d587e073",  // 73
    "3a9e0307c3de796b815542b3d0c90b61a5203ee9",  // 74
    "7b0c0b3a6e961b371a5080cef54220a30a9afa39",  // 75
    "35e5aa233c9f7d5d5f4095f10a7eb2386463714a",  // 76
    "5ec5f3cd53f4d8d2812e925971169aae05ca00f5",  // 77
    "9844dbb7e5438dad535b3cc267fda22915094ddc",  // 78
    "8857e00278b786a9a1bd1a5c00ca81ceea1183c6",  // 79
    "d46f1abac4e4c1437ba50751cd0f07dda03d8cbd",  // 80
    "f23f0e200cd3addc10856d5516cffcef136cbc8f",  // 81
    "9d3c1709d9f47eaf1648b1e9bff9f8fa9392c70e",  // 82
    "2adcc5a0476b9515cd32f6f385f6947c9b8c57df",  // 83
    "8b97fc8197d94c55f3c41ff380638944a0663870",  // 84
    "3e864c1c7ad899444cacd46e395788e3dab4ba2a",  // 85
    "2cb97ff3028dac2fe801cc3f0f1d7febbc488538",  // 86
    "e3636b2b64f8558b204f41db4fa426e9c91d5e64",  // 87
    "62ad6e1f0a7e3b265368770c8190874c1cdad0ae",  // 88
    "af07c561d91d82e46109b0aab65e1d4ff4855adb",  // 89
    "38590da98c032dacf8f5c243b822a11d35d82781",  // 90
    "2f710782948aa2118d8c8aad53ef0eb358dab3ab",  // 91
    "cde050590efe5bf54f7587dfdc121ae9c50738fb",  // 92
    "f2d4b1262ca216f4aee403a20d7c437e8acf483a",  // 93
    "f620a42282907d04ce5c903f854f344353bcb777",  // 94
    "0bb5f88272722ddc29c25568d42914813f6de17c",  // 95
    "76e26ff288e11ef8edf9312a5e7ee9bf0c50cf43",  // 96
    "d84d70748d2ee2ea756f963c5cf49b587059c4a9",  // 97
    "55daa3807db216e0a35afbf8c4f9fd6de165319d",  // 98
    "e9a44fabc5fff0912a4b281aec98410137e8da8b",  // 99
    "24cc0e3734497f698400621736077d9eb76da6a9",  // 100
    "906e0268163374e07bf4ecb4dae03b734f44ae40",  // 101
    "2877fa097b9c2580071933e6106b7b608c70cd60",  // 102
    "d66cf6cad0d6d1c10061f29ec20a79cf507effac",  // 103
    "55e2d15c1d7e04fe1c3fc1bca464f6737958b7af",  // 104
    "5fd9eacd785e626e3e8b72e1d4f7da20db61fad4",  // 105
    "a5a7f6e4493a4cb51c34a4a7519e6f83f864fddb",  // 106
    "6bdbbbe5295fee5739a7e4747716ce88b06cbe84",  // 107
    "e099acd9514668911e336732eee09848b1fc319f",  // 108
    "41080f14c6cbdebbc5fe633b26f27a95cdde775c",  // 109
    "4c602d8d85a4f13ac1a30f9cae0c425f9d9fde00",  // 110
    "b7b42d19ae6be209c36efe0c5dfe5bde4d306c43",  // 111
    "11e920cd4ed45c60c05a916e48a942f9e39c770b",  // 112
    "2a7237734453edb508687d4fcec7e027f10be533",  // 113
    "b5d4dfbd4ced11e3134ebeedb5233e57bfb82ccc",  // 114
    "6444cd62a8468402ffdd46685ce21e337a238ce6",  // 115
    "4f8620d09aa7a1f131dca718d89e74d9476611fe",  // 116
    "e180f5f16991aa42bd46d35773a9c8fb4172bedb",  // 117
    "9d8202fb77261222d9171118fc9ee72a1c567454",  // 118
    "562ecf8a430f8e1056e3619bae33628e9a1d0a4e",  // 119
    "353f6d2bf0e91aa91b74a2e0b3f297510f7d825f",  // 120
    "851880ff7adea68af146cd4fb9214f491b4ff8d7",  // 121
    "843c30316b74e98e9c38c11ff275bbdc7b69e46d",  // 122
    "9bfb90e2acd16502945af378546bcc419c4bcfb4",  // 123
    "ebbc830bd617b41a71e8cdc8884197075e7ce856",  // 124
    "dccf4bd5fdfcaecbd3bc4c140988452284da9978",  // 125
    "60fc5d6a45f329c5d4c4ea95e9a4082054d201b4",  // 126
    "bebc42d2d3d1e5fb8ad8895c2dcef2d68a6c279a",  // 127
    "0060f2a7e34b6e4d459f560197ef93243732a400",  // 128
    "3a16082d1bf09b604907ec6908b9893ca3e937c0",  // 129
    "6a259313b592f17840cde208eed964698df0148a",  // 130
    "185bb246c5c44fe2a707741827bec16506633d60",  // 131
    "900965de24d9b299a416a5e6f0c9d78c932dc7bd",  // 132
    "05796370fed7d906081bfff1f645f062e56b2784",  // 133
    "6b09963c9150d496bfc93866e788b556b509b1b1",  // 134
    "03718638a4a13734c43b3ddab053492029eaebcb",  // 135
    "2040e82cd626142536aadf74b3cd2c5d1c782ab2",  // 136
    "72902777c4b44ae586d122a7cc41efabf7348bc4",  // 137
    "5fc142e90e91960d3a4fcc1645d6cd9ebf96dfe6",  // 138
    "8ade39148f0dddce032c0334a426498dd87de7c9",  // 139
    "ced1a8f2878ec4d3c2d944dd8de8951523651def",  // 140
    "3f0abb644b8485f30a7e6e41ce3e6deb1a7b1626",  // 141
    "3cf78f772a2f3a39c65cecdfc2d2cc325ceb06b1",  // 142
    "818c0e19dc63992c2f38d519fdb43740e339ead3",  // 143
    "b04347aaa1ad87ffad57833744dcd92ee8be4992",  // 144
    "19ef87b71f4a284cb77d0d05500eee3d619d9292",  // 145
    "ef5916a0fc0d7ce1fb9cdc387938fdfbaa246a11",  // 146
    "19ae7ffd6792b03b2991a8c3e6f9a5be916b2ede",  // 147
    "f761052d22dda1a8fc46ba5068e93abf45407f06",  // 148
    "665504085edd036fbd952b04b5bf1248d68ae98c",  // 149
    "480cd2572d399647c3780fea38c09618b43d8461",  // 150
    "c6a6ebb238ea18878eaf4afc3654591f256495f1",  // 151
    "dd8596470a72eb2b45381c59d1b2c523c0c7d3c0",  // 152
    "dc044a346d37926603db52577d8a0fe8eb5bc99a",  // 153
    "296d4ddfd67e3823e97855c60395e605e655476b",  // 154
    "f9e1258ec4f4608be1736b8c7a7da04b64d06182",  // 155
    "2d09de23f719099bd142536f090ff9b45eaf0f6d",  // 156
    "de291520468ecded3b2964d7e4beb9d7eef3a805",  // 157
    "b915f0247ec3beec3ff24a35c6e0a0e45cb2725e",  // 158
    "006ef40ccd7ee02ccb588226ffde2214a3a22124",  // 159
    "b5463a28c25a3728b4005b3955e703adcd3a7dbb",  // 160
    "2b66b39f1b3fba3e3d42a62c0214696c6ba4550a",  // 161
    "487d923d5a6b831bb5826770d70e4c8402444615",  // 162
    "2ad2857a28387b8d3a236115b31e031f176ad868",  // 163
    "8efc8a892c29bfc41cf80bb508dbc0f9500a3643",  // 164
    "37ef081346677938a399bc8dc91edb99d368e66b",  // 165
    "2723e22f537887b23b5377fabb1f28ae2ea5ffda",  // 166
    "da4c92feb380aa32abb264b97593d72b33034d55",  // 167
    "407ad7a7142a71817bad5672d3d0f40627d0cb78",  // 168
    "9fbe2dae5712950fa9168bc7f07e8e5ff8c0f85c",  // 169
    "7416e462f0af7e3fc753144c2e0f43e3587cbce7",  // 170
    "acbfc1f70c1e9b9d8a4142a3d26897dc83eeceba",  // 171
    "5379243ba20b851e2dc9f8769f46739e8e716289",  // 172
    "54e9d91f05965167a116479aacba721c6c2dddc0",  // 173
    "41eaa4b0c587cb38ca3a709ff2bf75d543392b29",  // 174
    "76eb44a9456cae3985acbf6b4e61882ea8bf1a01",  // 175
    "b003f0bd5dde9717bc13e4d874a5e4afa131e4d2",  // 176
    "dfad13619a9c3064f4fdfd0478269d704d871063",  // 177
    "b700f829a8eaf4d64724b54389c8abcc50de81ac",  // 178
    "7aae0d1b701a5777f33f54d95424706587e5fb06",  // 179
    "6ff72c93a3bfe1f723b2c4670062124072016657",  // 180
    "fedf4e093b0e0413786b9a114813ffb6239d86f2",  // 181
    "0bcc478275e210d150d2be97a504960376ef2314",  // 182
    "870cbbfb74a4bb71369de543b8e0f3473f29a602",  // 183
    "3ab35d8a160f267b435f0a325ff461a64d3c7b7b",  // 184
    "b9790528c15f989b03f341e23feec45a6d5ce81c",  // 185
    "3207cc92551cab8ea72221124bcc09338e941610",  // 186
    "2024f7a28d3ffb7edfa95672c7d6ae3a24dd7310",  // 187
    "f7ca0920d7595bfe4287636f821f67491a1471fa",  // 188
    "aa63b1b356240e8494cce1cd06c3e75d99a49e83",  // 189
    "8e4bb0244bc7fce3b1ce94cc5d8db2996c6ed262",  // 190
    "90d881e31a36af55e527ceb7f011b051a6dd4ac2",  // 191
    "9d9112152625f518fae155f757471e6564167ac8",  // 192
    "d665859ce51ed06764f8be49466cd7bbfd9bdf06",  // 193
    "8386eca1acc749138710ecdbe5279f5c87d3ebc2",  // 194
    "dc2ab28cb02a317b8a5d09c34a2a49a21f522733",  // 195
    "417f863ee634afbc6e0fc3e4a91fc80c3540a3e8",  // 196
    "481856077580a67edc7f96227ea3403ea683aea8",  // 197
    "ecabad2c248cf1b50346ac26afe67837b329d077",  // 198
    "6ddadf9e2c69ed1bdf0b71bd01dd603ba6556107",  // 199
    "9194d8145e556594766df1e7699e2dfda424d1ee",  // 200
};

// Every compression block this process can run, by name: the portable
// block always, the SHA-extension block where the CPU has it. Hashers
// built with an explicit block bypass the CPUID selection, so the
// portable block is checked on machines that would never pick it.
std::vector<std::pair<std::string, sha1_internal::BlockFn>> Blocks() {
  std::vector<std::pair<std::string, sha1_internal::BlockFn>> out;
  out.emplace_back("portable", &sha1_internal::PortableBlock);
  if (sha1_internal::CpuHasShaExt()) {
    out.emplace_back("sha-ext", sha1_internal::ShaExtBlock());
  }
  return out;
}

Sha1Digest HashWith(sha1_internal::BlockFn block, const std::string& data) {
  Sha1 hasher(block);
  hasher.Update(data);
  return hasher.Finish();
}

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(Sha1::Hash("").ToHex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(Sha1::Hash("abc").ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(Sha1::Hash(a).ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-new-block path.
  std::string block(64, 'x');
  EXPECT_EQ(Sha1::Hash(block), Sha1::Hash(block.data(), block.size()));
  std::string b55(55, 'y'), b56(56, 'y'), b57(57, 'y');
  EXPECT_NE(Sha1::Hash(b55), Sha1::Hash(b56));
  EXPECT_NE(Sha1::Hash(b56), Sha1::Hash(b57));
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string data =
      "the quick brown fox jumps over the lazy dog, repeatedly and at "
      "odd chunk boundaries";
  for (size_t chunk : {1u, 3u, 7u, 13u, 64u, 100u}) {
    Sha1 hasher;
    for (size_t i = 0; i < data.size(); i += chunk) {
      hasher.Update(data.substr(i, chunk));
    }
    EXPECT_EQ(hasher.Finish(), Sha1::Hash(data)) << "chunk " << chunk;
  }
}

TEST(Sha1KatTest, EveryLengthUpTo200OnEveryBlock) {
  const std::string msg = KatMessage(200);
  for (const auto& [name, block] : Blocks()) {
    for (size_t n = 0; n <= 200; ++n) {
      EXPECT_EQ(HashWith(block, msg.substr(0, n)).ToHex(), kKatDigests[n])
          << name << " block, length " << n;
    }
  }
  // The default hasher runs whichever block CPUID selected.
  for (size_t n = 0; n <= 200; ++n) {
    EXPECT_EQ(Sha1::Hash(msg.substr(0, n)).ToHex(), kKatDigests[n])
        << Sha1::BlockName() << " (selected), length " << n;
  }
}

TEST(Sha1KatTest, UpdateSplitAtEveryOffset) {
  for (const auto& [name, block] : Blocks()) {
    for (size_t len : {55u, 64u, 119u, 200u}) {
      const std::string msg = KatMessage(len);
      for (size_t split = 0; split <= len; ++split) {
        Sha1 hasher(block);
        hasher.Update(msg.data(), split);
        hasher.Update(msg.data() + split, len - split);
        EXPECT_EQ(hasher.Finish().ToHex(), kKatDigests[len])
            << name << " block, length " << len << ", split " << split;
      }
    }
  }
}

TEST(Sha1KatTest, NistVectorsOnEveryBlock) {
  for (const auto& [name, block] : Blocks()) {
    EXPECT_EQ(HashWith(block, "abc").ToHex(),
              "a9993e364706816aba3e25717850c26c9cd0d89d")
        << name;
    EXPECT_EQ(HashWith(block, std::string(1000000, 'a')).ToHex(),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f")
        << name;
  }
}

TEST(Sha1KatTest, BlockNameMatchesCpu) {
  EXPECT_STREQ(Sha1::BlockName(),
               sha1_internal::CpuHasShaExt() ? "sha-ext" : "portable");
}

TEST(Sha1Test, ResetAllowsReuse) {
  Sha1 hasher;
  hasher.Update("abc");
  Sha1Digest first = hasher.Finish();
  hasher.Reset();
  hasher.Update("abc");
  EXPECT_EQ(hasher.Finish(), first);
}

TEST(Sha1DigestTest, HexTruncation) {
  Sha1Digest d = Sha1::Hash("abc");
  EXPECT_EQ(d.ToHex(4), "a9993e36");
  EXPECT_EQ(d.ToHex(0).size(), 40u);
  EXPECT_EQ(d.ToHex(40).size(), 40u);  // clamped to digest size
}

TEST(Sha1DigestTest, OrderingAndEquality) {
  Sha1Digest a = Sha1::Hash("a");
  Sha1Digest b = Sha1::Hash("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_EQ(a, Sha1::Hash("a"));
}

TEST(Sha1DigestTest, ZeroDetection) {
  Sha1Digest zero{};
  EXPECT_TRUE(zero.IsZero());
  EXPECT_FALSE(Sha1::Hash("x").IsZero());
}

TEST(Sha1DigestTest, Prefix64IsStable) {
  Sha1Digest d = Sha1::Hash("abc");
  EXPECT_EQ(d.Prefix64(), Sha1::Hash("abc").Prefix64());
  EXPECT_NE(d.Prefix64(), Sha1::Hash("abd").Prefix64());
}

TEST(Sha1DigestTest, NoCollisionsOverManyInputs) {
  std::unordered_set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(Sha1::Hash(std::to_string(i)).ToHex());
  }
  EXPECT_EQ(seen.size(), 10000u);
}

}  // namespace
}  // namespace dpc
