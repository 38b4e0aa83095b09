package sig

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func pair(t *testing.T) *KeyPair {
	t.Helper()
	k, err := NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSignVerify(t *testing.T) {
	k := pair(t)
	msg := []byte("attack at dawn")
	s := k.Sign(msg)
	if err := Verify(k.Public(), msg, s); err != nil {
		t.Fatal(err)
	}
}

// memoUsed counts the occupied slots of k's signature memo.
func memoUsed(k *KeyPair) int {
	n := 0
	for i := range k.memo {
		e := &k.memo[i]
		e.mu.Lock()
		if e.used {
			n++
		}
		e.mu.Unlock()
	}
	return n
}

func TestSignMemoMatchesFreshSignature(t *testing.T) {
	k := pair(t)
	for _, msg := range [][]byte{nil, []byte("m"), bytes.Repeat([]byte("long "), 1000)} {
		want := ed25519.Sign(k.priv, msg)
		before := Signs()
		first, second := k.Sign(msg), k.Sign(msg)
		if !bytes.Equal(first, want) || !bytes.Equal(second, want) {
			t.Fatalf("Sign(%q...) differs from ed25519.Sign", msg[:min(len(msg), 8)])
		}
		if got := Signs() - before; got != 1 {
			t.Fatalf("two Signs of one message computed %d signatures, want 1", got)
		}
	}
}

func TestSignMemoSurvivesCallerMutation(t *testing.T) {
	k := pair(t)
	msg := []byte("the reply every proxy asks for")
	s := k.Sign(msg)
	s[0] ^= 0xff // the caller owns what it was given
	again := k.Sign(msg)
	if err := Verify(k.Public(), msg, again); err != nil {
		t.Fatalf("flipping a returned signature poisoned the memo: %v", err)
	}
	again[1] ^= 0xff // and so does a caller served from the memo
	if err := Verify(k.Public(), msg, k.Sign(msg)); err != nil {
		t.Fatalf("flipping a memoised signature poisoned the memo: %v", err)
	}
	// The caller's message buffer is not retained either.
	msg[0] ^= 1
	if err := Verify(k.Public(), msg, k.Sign(msg)); err != nil {
		t.Fatalf("signature of the changed message is wrong: %v", err)
	}
}

func TestSignMemoIsBounded(t *testing.T) {
	k := pair(t)
	for i := 0; i < 10*memoSlots; i++ {
		msg := []byte(fmt.Sprintf("server-response\x00req-%d\x000\x00body", i))
		if err := Verify(k.Public(), msg, k.Sign(msg)); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if used := memoUsed(k); used > memoSlots || used < memoSlots/2 {
		t.Fatalf("memo holds %d entries after %d distinct messages, want at most %d and most of them", used, 10*memoSlots, memoSlots)
	}
}

func TestSignMemoConcurrent(t *testing.T) {
	k := pair(t)
	msg := []byte("one message, many askers")
	want := ed25519.Sign(k.priv, msg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := k.Sign(msg); !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: wrong signature", g)
					return
				}
				// Churn the table under the shared message.
				other := []byte(fmt.Sprintf("other-%d-%d", g, i))
				if Verify(k.Public(), other, k.Sign(other)) != nil {
					t.Errorf("goroutine %d: bad signature for %s", g, other)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestVerifyCounts(t *testing.T) {
	k := pair(t)
	msg := []byte("m")
	s := k.Sign(msg)
	before := Verifies()
	_ = Verify(k.Public(), msg, s)
	_ = Verify(k.Public(), []byte("other"), s)
	if got := Verifies() - before; got != 2 {
		t.Fatalf("two Verify calls counted %d", got)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	k := pair(t)
	msg := []byte("attack at dawn")
	s := k.Sign(msg)
	msg[0] ^= 1
	if err := Verify(k.Public(), msg, s); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1, k2 := pair(t), pair(t)
	msg := []byte("msg")
	if err := Verify(k2.Public(), msg, k1.Sign(msg)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("want ErrBadSignature, got %v", err)
	}
}

func TestVerifyRejectsBadKeyLength(t *testing.T) {
	if err := Verify([]byte{1, 2, 3}, []byte("m"), []byte("s")); err == nil {
		t.Fatal("short public key accepted")
	}
}

func TestServerResponseRoundTrip(t *testing.T) {
	k := pair(t)
	r := SignServerResponse(k, "req-1", []byte("result"), 2)
	if err := VerifyServerResponse(k.Public(), r); err != nil {
		t.Fatal(err)
	}
	if r.ServerIndex != 2 || r.RequestID != "req-1" || string(r.Body) != "result" {
		t.Fatalf("fields mangled: %+v", r)
	}
}

func TestServerResponseBindsIndex(t *testing.T) {
	k := pair(t)
	r := SignServerResponse(k, "req-1", []byte("result"), 2)
	r.ServerIndex = 3 // a compromised proxy relabeling the signer
	if err := VerifyServerResponse(k.Public(), r); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("index swap not caught: %v", err)
	}
}

func TestServerResponseBindsRequestID(t *testing.T) {
	k := pair(t)
	r := SignServerResponse(k, "req-1", []byte("result"), 2)
	r.RequestID = "req-9" // replaying a response for a different request
	if err := VerifyServerResponse(k.Public(), r); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("request-id swap not caught: %v", err)
	}
}

func TestVerifyAnswer(t *testing.T) {
	k := pair(t)
	r := SignServerResponse(k, "req-1", []byte("result"), 2)
	if err := VerifyAnswer(k.Public(), r, "req-1", 2); err != nil {
		t.Fatal(err)
	}
	before := Verifies()
	if err := VerifyAnswer(k.Public(), r, "req-2", 2); err == nil {
		t.Error("authentic response accepted as the answer to another request")
	}
	if err := VerifyAnswer(k.Public(), r, "req-1", 3); err == nil {
		t.Error("authentic response accepted as another server's answer")
	}
	if got := Verifies() - before; got != 0 {
		t.Errorf("mismatched id and index cost %d verifies, want none", got)
	}
	r.Body = []byte("forged")
	if err := VerifyAnswer(k.Public(), r, "req-1", 2); !errors.Is(err, ErrBadSignature) {
		t.Errorf("forged body: %v", err)
	}
}

func TestServerResponseBindsBody(t *testing.T) {
	k := pair(t)
	r := SignServerResponse(k, "req-1", []byte("result"), 2)
	r.Body = []byte("forged")
	if err := VerifyServerResponse(k.Public(), r); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("body swap not caught: %v", err)
	}
}

func TestSignServerResponseCopiesBody(t *testing.T) {
	k := pair(t)
	body := []byte("abc")
	r := SignServerResponse(k, "req", body, 0)
	body[0] = 'z'
	if string(r.Body) != "abc" {
		t.Fatal("response aliases caller's buffer")
	}
}

func TestDoubleSignatureAcceptance(t *testing.T) {
	serverKey, proxyKey := pair(t), pair(t)
	vs := NewVerifierSet()
	vs.Servers[1] = serverKey.Public()
	vs.Proxies["p0"] = proxyKey.Public()

	inner := SignServerResponse(serverKey, "r", []byte("ok"), 1)
	d, err := OverSign(proxyKey, "p0", inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.VerifyDoublySigned(d); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleSignatureRejectsUnknownProxy(t *testing.T) {
	serverKey, proxyKey := pair(t), pair(t)
	vs := NewVerifierSet()
	vs.Servers[1] = serverKey.Public()
	// proxy key NOT registered
	inner := SignServerResponse(serverKey, "r", []byte("ok"), 1)
	d, err := OverSign(proxyKey, "p0", inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.VerifyDoublySigned(d); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("want ErrUnknownSigner, got %v", err)
	}
}

func TestDoubleSignatureRejectsUnknownServerIndex(t *testing.T) {
	serverKey, proxyKey := pair(t), pair(t)
	vs := NewVerifierSet()
	vs.Proxies["p0"] = proxyKey.Public()
	vs.Servers[1] = serverKey.Public()
	inner := SignServerResponse(serverKey, "r", []byte("ok"), 7) // index 7 unknown
	d, err := OverSign(proxyKey, "p0", inner)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.VerifyDoublySigned(d); !errors.Is(err, ErrUnknownSigner) {
		t.Fatalf("want ErrUnknownSigner, got %v", err)
	}
}

func TestDoubleSignatureRejectsForgedInner(t *testing.T) {
	// A compromised proxy cannot forge a server response: it can over-sign,
	// but the inner signature fails under the real server key.
	serverKey, proxyKey, attackerKey := pair(t), pair(t), pair(t)
	vs := NewVerifierSet()
	vs.Servers[1] = serverKey.Public()
	vs.Proxies["p0"] = proxyKey.Public()

	forged := SignServerResponse(attackerKey, "r", []byte("lies"), 1)
	d, err := OverSign(proxyKey, "p0", forged)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.VerifyDoublySigned(d); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged inner response accepted: %v", err)
	}
}

func TestDoubleSignatureRejectsTamperedInnerAfterOverSign(t *testing.T) {
	serverKey, proxyKey := pair(t), pair(t)
	vs := NewVerifierSet()
	vs.Servers[1] = serverKey.Public()
	vs.Proxies["p0"] = proxyKey.Public()
	inner := SignServerResponse(serverKey, "r", []byte("ok"), 1)
	d, err := OverSign(proxyKey, "p0", inner)
	if err != nil {
		t.Fatal(err)
	}
	d.Response.Body = []byte("swapped") // tamper after over-signing
	if err := vs.VerifyDoublySigned(d); err == nil {
		t.Fatal("tampered inner accepted")
	}
}

func TestDoubleSignatureRejectsProxyIDSwap(t *testing.T) {
	serverKey, p0, p1 := pair(t), pair(t), pair(t)
	vs := NewVerifierSet()
	vs.Servers[1] = serverKey.Public()
	vs.Proxies["p0"] = p0.Public()
	vs.Proxies["p1"] = p1.Public()
	inner := SignServerResponse(serverKey, "r", []byte("ok"), 1)
	d, err := OverSign(p0, "p0", inner)
	if err != nil {
		t.Fatal(err)
	}
	d.ProxyID = "p1" // claim another proxy signed it
	if err := vs.VerifyDoublySigned(d); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("proxy-id swap not caught: %v", err)
	}
}

// Property: round-trip holds for arbitrary bodies and indices.
func TestSignVerifyProperty(t *testing.T) {
	serverKey, proxyKey := pair(t), pair(t)
	vs := NewVerifierSet()
	vs.Proxies["p"] = proxyKey.Public()
	prop := func(body []byte, idxRaw uint8, reqID string) bool {
		idx := int(idxRaw)
		vs.Servers[idx] = serverKey.Public()
		inner := SignServerResponse(serverKey, reqID, body, idx)
		d, err := OverSign(proxyKey, "p", inner)
		if err != nil {
			return false
		}
		return vs.VerifyDoublySigned(d) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSignServerResponse(b *testing.B) {
	k, err := NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	body := []byte("a typical small response body")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SignServerResponse(k, "req", body, 1)
	}
}

func BenchmarkVerifyDoublySigned(b *testing.B) {
	serverKey, err := NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	proxyKey, err := NewKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	vs := NewVerifierSet()
	vs.Servers[1] = serverKey.Public()
	vs.Proxies["p"] = proxyKey.Public()
	inner := SignServerResponse(serverKey, "req", []byte("body"), 1)
	d, err := OverSign(proxyKey, "p", inner)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vs.VerifyDoublySigned(d); err != nil {
			b.Fatal(err)
		}
	}
}
