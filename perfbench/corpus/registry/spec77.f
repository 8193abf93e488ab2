
program spec77
  input integer :: nwave = 40, steps = 7
  integer :: l, t
  integer :: wave(50)
  real :: z(50), d(50), w(50), f(50)
  real :: norm
  do l = 1, nwave
    wave(l) = mod(l * 3, nwave) + 1
    z(l) = real(l) * 0.1
    d(l) = 0.0
    w(l) = 1.0
    f(l) = 0.5
  end do
  do t = 1, steps
    call semimp(nwave, z, d)
    call diffuse(nwave, z, d)
    call filter(nwave, z, w)
    call nonlin(nwave, wave, w, f)
  end do
  norm = 0.0
  do l = 1, nwave
    norm = norm + z(l) * z(l) + f(l)
  end do
  print norm
end program

subroutine semimp(nwave, z, d)
  integer :: nwave, l
  real :: z(50), d(50)
  do l = 2, nwave
    d(l) = z(l) * 0.6 + z(l - 1) * 0.4
  end do
  do l = 2, nwave
    z(l) = z(l) - d(l) * 0.05
    d(l) = d(l) * 0.98 + z(l) * 0.002
    z(l) = z(l) + d(l) * 0.001
  end do
end subroutine

subroutine diffuse(nwave, z, d)
  integer :: nwave, l
  real :: z(50), d(50)
  do l = 1, nwave
    z(l) = z(l) * 0.995 + d(l) * 0.004
    d(l) = d(l) * 0.9 + z(l) * 0.001
  end do
end subroutine

subroutine filter(nwave, z, w)
  integer :: nwave, l
  real :: z(50), w(50)
  real :: resid
  integer :: iter
  do l = 1, nwave - 2
    w(l) = z(l + 2) * 0.25 + z(l + 1) * 0.5 + z(l) * 0.25
  end do
  resid = 1.0
  iter = 1
  while (resid > 0.05) do
    resid = resid * 0.5
    w(iter) = w(iter) * 0.99
    iter = iter + 1
  end while
end subroutine

subroutine nonlin(nwave, wave, w, f)
  integer :: nwave, l, k
  real :: w(50), f(50)
  integer :: wave(50)
  do l = 1, nwave
    k = wave(l)
    if (mod(l, 2) == 0) then
      f(k) = f(k) * 0.9
    end if
    f(k) = f(k) + w(l) * 0.01
  end do
end subroutine
