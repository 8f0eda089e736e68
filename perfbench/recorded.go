package main

// Check values recorded from the simulator. A change that alters any of
// them changes simulated behaviour and must say why; regenerate this
// file's values with `perfbench --record` and `perfbench --record --tiny`.

// manyFlowsRecord is one many-flows world's deterministic counts.
type manyFlowsRecord struct {
	Events    uint64
	Packets   uint64
	Delivered int64
}

// chaosRecord is one chaos sweep's JSON digest and simulated counts;
// the digest alone would not see a change that leaves every run
// finished and clean.
type chaosRecord struct {
	Digest  string
	Events  uint64
	Packets uint64
}

// observedRecord is what the sinks of one observed fig5 run saw.
type observedRecord struct {
	NDJSONBytes int64
	Completed   uint64
	Spans       int
}

var recordedManyFlows = map[int64]manyFlowsRecord{
	1: {Events: 2417663, Packets: 1206815, Delivered: 192528000},
	2: {Events: 2418041, Packets: 1207057, Delivered: 192832000},
	3: {Events: 2416773, Packets: 1206368, Delivered: 192860000},
	4: {Events: 2418824, Packets: 1207384, Delivered: 192769000},
	5: {Events: 2418878, Packets: 1207394, Delivered: 192481000},
	6: {Events: 2416321, Packets: 1206111, Delivered: 192578000},
	7: {Events: 2416812, Packets: 1206393, Delivered: 192723000},
	8: {Events: 2416393, Packets: 1206203, Delivered: 192849000},
}

var recordedChaos = map[int64]chaosRecord{
	1: {Digest: "8ac8fdbfe48540ccaae5dc0475a7fa28c856a57409c1085eb4a879bd870593ec", Events: 4618620, Packets: 2274076},
	2: {Digest: "29cae44baf6aa75ec44171b2e86e0108c2040c47f6b4a71a7ca8f0f22ccb07ea", Events: 4612735, Packets: 2271452},
	3: {Digest: "c316b54d53015fd8057151ae1f2a0f0d0aa3478504b4299b2b7982fb631a2b55", Events: 4618725, Packets: 2274526},
	4: {Digest: "9adea37f84f2dafe75f57d1f8e79fcce015d02b174cf9c70ca67fb0f20c2fc94", Events: 4624483, Packets: 2272357},
	5: {Digest: "b8cfe492f35c9eb7abeff5cc91656ea94ac0dd52e81f3428a3bc185ece9a6401", Events: 4618098, Packets: 2273108},
	6: {Digest: "185b06077ae5184f2fed2bcecb20ee0a15ce8274b68ee9fd6b284058d2439087", Events: 4611221, Packets: 2270356},
	7: {Digest: "40e938d90199d101a452e8e9ecb859dfdaa005effdae3d31c410d6acafd04cd6", Events: 4610695, Packets: 2268423},
	8: {Digest: "3821da668c22f01f569919301e5c0761bd999fea9c6235629dcdaa6d65a86132", Events: 4612451, Packets: 2270590},
}

// recordedPaperSuite is the SHA-256 of `rrsim all -quick -json`.
const recordedPaperSuite = "ec66c46ca6cf2a63d5a7017c274d1c58d35fee324784129178b475cbf2587e76"

var recordedObserved = observedRecord{NDJSONBytes: 915583, Completed: 4, Spans: 1177}

const recordedObservedDigest = "65dce6f75c99a1c157189be1c4a62ff72a457d846dc219a78e3cde2b83e190be"

var recordedManyFlowsTiny = map[int64]manyFlowsRecord{
	1: {Events: 13769, Packets: 6880, Delivered: 889000},
	2: {Events: 13807, Packets: 6901, Delivered: 853000},
	3: {Events: 13731, Packets: 6862, Delivered: 858000},
	4: {Events: 13356, Packets: 6674, Delivered: 920000},
	5: {Events: 13535, Packets: 6762, Delivered: 849000},
	6: {Events: 13269, Packets: 6630, Delivered: 823000},
	7: {Events: 13431, Packets: 6712, Delivered: 886000},
	8: {Events: 13610, Packets: 6797, Delivered: 825000},
}

var recordedChaosTiny = map[int64]chaosRecord{
	1: {Digest: "2e3f4a42479cfb86184647e43cfc94b30d6614ec530d56d474b7d8db2a4385f0", Events: 232531, Packets: 114275},
	2: {Digest: "1e846e73e50ebe3e502d551a4e69ad298e417fcc796d8396508e1d01ca7d020a", Events: 230637, Packets: 113550},
	3: {Digest: "25733c1ff0c28e960e7a2ddea57abc5282cdceafd124572b8af979f2a438a75d", Events: 232807, Packets: 114388},
	4: {Digest: "be2f88f406e62c89db26542956339d977a632e86d7ebe26ca1492004e71f10ef", Events: 228024, Packets: 111493},
	5: {Digest: "7c98a8575cb22b3e0bcd9452bd67e6f82c28535c58274ca5b9c0538db3311757", Events: 233525, Packets: 115415},
	6: {Digest: "80e3311d08501a6b13b2ba6c7025c72dea346b101c8c36400a8f825627ae774c", Events: 227497, Packets: 112100},
	7: {Digest: "b3fcafbf3c10cc3cd4f0dd001e28e82ca14963ec9376e5b44ea321bf10d21f2f", Events: 234504, Packets: 114818},
	8: {Digest: "d6e0671a57a1570ed9d32d8d3a9947e064734d58453ce21b43d484b636026e81", Events: 231220, Packets: 114040},
}
