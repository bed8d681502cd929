package workload_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceGolden holds, per run, the SHA-256 over the run's IBT2 encoding
// (trace.Encode of Records) followed by its Summary printed with %+v (fmt
// prints SiteByPC sorted by key). The hashes pin the generator's output
// independently of the generator itself: a rewrite of the generation loop
// must leave every one of them alone, and only a deliberate change to what
// a workload model produces may rewrite them.
var traceGolden = map[string]string{
	"2000/perl.exp":   "de4a5f69c16970dc4af4d2468093c4db19ec378a81e39ca8ce0a5119adc3dcbd",
	"2000/gcc.cp":     "c9cc15e3258466c7681a9c712821ac75b2bd2f7ac9b87ca089dc5fde6b016e00",
	"2000/edg.pic":    "cdfd84cdd2ace508eb207ddeeb1599152fe99907018522f5133868577bdf96e6",
	"2000/edg.inp":    "59d57e0c09a3f1b827cb87967c48d8e48f7739253650f22d45ad71048550219b",
	"2000/gs.tig":     "c207ed9c277ab6204c08b904ef0f7a139cd0a78f71ffaf2e7d95b64238e57985",
	"2000/gs.pho":     "f26de1f3a9693679414516326007f2537d0e25c99b742b225db2217e8d268691",
	"2000/troff.ped":  "bf4ed603c084491ca14742368d7e45980c1aa12dc997272a43a499b021dc7170",
	"2000/troff.gcc":  "2056c7de32843a11b81de3bb8060c1d015af6e61ac1769d00d5409e8b1612d79",
	"2000/troff.lle":  "1480faa9b7d8bee43055addb8ae0ec3e83016c1ec43fb6bb3b0294433d3938e4",
	"2000/eqn":        "1123b4867c2c53b78c9ccb83f8c93c7702df532bda2f24c21c7a60b958b9b666",
	"2000/eon":        "4824323218b6dd44cfa2185dd9bf2e7e91f42814e4eaf59894464d3f77353334",
	"2000/photon":     "3f87df203ede77b620163ab6f36fd89a6d2da22645da39c55f70a1871407c75f",
	"2000/ixx.wid":    "f97e8ad711ef1f9d192d536d637df759fe6b68be2b5d313fb1f599dfc91a839b",
	"2000/ixx.lay":    "3702a83108dabb9333618b118342ab2e838acd0f05b987bf40f3ab1e78e890ed",
	"20000/perl.exp":  "0ab6b266bccc8f64e60ce403874faade12a108e46c792e8d942a48705e5b86c7",
	"20000/gcc.cp":    "f95337976504a7e56f3d47e237f3e27387b8d4033211deadfbe8da1c7c0b798f",
	"20000/edg.pic":   "c8fad4b31dd66dc177dd3c76f50700e0bf844e500f6b5e26965420aec8925eff",
	"20000/edg.inp":   "f7815dd3ae8fcb3cdd18706f37c5877d4ee9412b3ee642bc3b06813df47f2a33",
	"20000/gs.tig":    "2fcf4651d8e99b4034c684353ef5e273f6f958c68a4f221cc00a6e8517181c56",
	"20000/gs.pho":    "86186e39637c5beadd70e3087c8b2350c5f0cf9396391b406e54ef3d069e159d",
	"20000/troff.ped": "fb98341cc12f8bf9a9e040a849e3472057a957aefa013a4c94fe56af063c0ef8",
	"20000/troff.gcc": "dd5a2601b3b2e9f99af208f4e74bfa45ac7a7ba969e0d2282c256c10368b45ff",
	"20000/troff.lle": "aca6c4d6421f0a8fa3109616634bdd24fe1ba077f22b4012b06c8aca4f533b63",
	"20000/eqn":       "bf569c06b60ca2ce70ed3aaee10bd590fe6b1b0ba986c1459bc1d91d878eed97",
	"20000/eon":       "b45ba98378cdf766df8a5fcda2d11be13adcfe1a9c56ed7c5dd8fb65c70fa0b9",
	"20000/photon":    "e57db9be8de3a5bb4b6efc47f9200acc0cc936815291787d675a1dac8096efc9",
	"20000/ixx.wid":   "ea313dfa16d5c82bb58c7e418231b66ca522ca7ebde464f211e4d085277a06b8",
	"20000/ixx.lay":   "e38dfc5e39deba193bbbd4e4de4f9c50499318a0fdb62b376890137f8fad37c2",
	"rand/1":          "18f6511d573bff39b1a1b88afc768dd84d7201322f4ddc926b4aba18d2a89165",
	"rand/2":          "8da0089d78db28ebf1adf8451122f75a494b6426986edea3b2c0792881c316f1",
	"rand/3":          "05aaeb1d227c32e050013d423c03bbe0daa649e9a4d00d98afc8ac91c14dd079",
	"rand/4":          "16fcf5aa87ce57409d079b79b7f9149acbdb476ed95552295af55597b83ab296",
	"rand/5":          "00c7c7ba280ee81929d0cc1401d4c609413c0cd46f05a4d825688bf8e3e2105b",
	"rand/6":          "c432a190d0c24d7fe9a4bb6dbd4818a2b9c0933d580bb39240788fde85c55498",
	"rand/7":          "1795600222ac3887b72747a995b2dcf61cb82d21814c6b035529040240b7c7c1",
	"rand/8":          "78f7a0a81438287db5bd9e36d27db655edb9340a9081aa645537de373e332fc3",
	"rand/9":          "505a63cad56f25cd336f04d99fae33424e6f48a345057e1a8fc7bafdb073bebc",
	"rand/10":         "f84206d949a707886c790becb585abbb0836cc888985d8e249905cefd35f81d8",
	"rand/11":         "ccda903c883f97b6ab1b603f0897fa1c3c384578563762787485a08020ff136d",
	"rand/12":         "bd12a66f5a6b26a6527069abd8e55d624de9e8623c9e204ac8f300f314651b43",
	"rand/13":         "f587e8e0a3b4dd1a24aedcd931c7895afcfe37a5473751bfd5b580325ca8286b",
	"rand/14":         "91618d8347d6bbd3fa576ce6f2700a14f66227b7c6df0c532e79716bb66b79b7",
	"rand/15":         "4b111ed9416b81ae969e3a4d3279b5411dab5e2c48de056647a1894e5c106309",
	"rand/16":         "b3ff66e81cc4f144c6a78d709fe5e9c57289a6086331575caf9bfd1cecc8937f",
	"rand/17":         "25d14fc10649326f94a479f87dc32093ed01cacd408a8183266cc20bbceb345c",
	"rand/18":         "2499e671902e9d6aed775f9153ba2cadacaf0733f12218f2eeb08664a90e37d1",
	"rand/19":         "db93cb500217690a62137460c7d0f47356e4b7b925be6290fb9342b0e54f01f2",
	"rand/20":         "91daa6cdd2244ffadf3c7ce962ba37cfd692bc124e097b517de2424683f49d39",
	"rand/21":         "5941d1e7f09173be4f4f6961fa3ef95b94ebac84597b278b8aeb7eba6a65ffbf",
	"rand/22":         "70d81fba8236f766f6634cb818fab97be161b3a6d0d8a94efe7a0617e45ebdc1",
	"rand/23":         "5967bb2cad766f174bee37f3039d7b7374c7fe2b5d149a4b120d039b9dec9f00",
	"rand/24":         "93eec1fc4d7b7b39326e90ba352b1d4cd4ae8fda28e60a9a1e7dab23c162d7f9",
}

// goldenRuns lists the pinned runs under their traceGolden keys: the
// seeded suite at 2,000 and 20,000 events and the harness's random
// configurations at the sizes TestBlocksMatchRecordsConversion uses.
func goldenRuns() (keys []string, cfgs []workload.Config) {
	for _, events := range []int{2000, 20000} {
		for _, cfg := range bench.Sized(events) {
			keys = append(keys, fmt.Sprintf("%d/%s", events, cfg))
			cfgs = append(cfgs, cfg)
		}
	}
	for seed := uint64(1); seed <= 24; seed++ {
		keys = append(keys, fmt.Sprintf("rand/%d", seed))
		cfgs = append(cfgs, check.RandomConfig(seed, 300+int(seed)*37))
	}
	return keys, cfgs
}

// TestTraceGolden generates every pinned run and compares the hash of its
// encoding and summary with the recorded one.
func TestTraceGolden(t *testing.T) {
	keys, cfgs := goldenRuns()
	if len(keys) != len(traceGolden) {
		t.Fatalf("%d pinned runs, %d hashes", len(keys), len(traceGolden))
	}
	for i, cfg := range cfgs {
		recs, sum := cfg.Records()
		enc, err := trace.Encode(recs)
		if err != nil {
			t.Fatalf("%s: encode: %v", keys[i], err)
		}
		h := sha256.New()
		h.Write(enc)
		fmt.Fprintf(h, "%+v", sum)
		if got, want := hex.EncodeToString(h.Sum(nil)), traceGolden[keys[i]]; got != want {
			t.Errorf("%s: trace hash %s, want %s", keys[i], got, want)
		}
	}
}
